package rng

import "fmt"

// Dist is a univariate distribution that models and samples activity
// durations (and other nonnegative quantities) in the stochastic models.
// Implementations must be immutable values so they can be shared freely
// across goroutines; all randomness flows through the supplied *Rand.
type Dist interface {
	// Sample draws one value using r as the entropy source.
	Sample(r *Rand) float64
	// String describes the distribution (used in traces and reports).
	String() string
}

// Exponential is an exponential distribution with the given Rate
// (mean 1/Rate).
type Exponential struct {
	Rate float64
}

var _ Dist = Exponential{}

// Sample draws an exponential variate.
func (d Exponential) Sample(r *Rand) float64 { return r.Exp(d.Rate) }

func (d Exponential) String() string { return fmt.Sprintf("Exp(rate=%g)", d.Rate) }

// LogNormal is a log-normal distribution parameterized by the mean Mu and
// standard deviation Sigma of the underlying normal.
type LogNormal struct {
	Mu, Sigma float64
}

var _ Dist = LogNormal{}

// Sample draws a log-normal variate.
func (d LogNormal) Sample(r *Rand) float64 { return r.LogNormal(d.Mu, d.Sigma) }

func (d LogNormal) String() string { return fmt.Sprintf("LogN(%g,%g)", d.Mu, d.Sigma) }

// Deterministic always yields Value. Useful for fixed delays (PLC scan
// cycles, polling periods) and for making tests exact.
type Deterministic struct {
	Value float64
}

var _ Dist = Deterministic{}

// Sample returns Value without consuming entropy.
func (d Deterministic) Sample(*Rand) float64 { return d.Value }

func (d Deterministic) String() string { return fmt.Sprintf("Det(%g)", d.Value) }
