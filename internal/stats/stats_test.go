package stats

import (
	"math"
	"testing"
	"testing/quick"

	"diversify/internal/rng"
)

func almost(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	almost(t, "mean", Mean(xs), 5, 1e-12)
	almost(t, "variance", Variance(xs), 32.0/7.0, 1e-12)
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of single sample should be NaN")
	}
}

func TestDescribe(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	s := Describe(xs)
	if s.N != 4 || s.Min != 10 || s.Max != 40 {
		t.Fatalf("Describe basic fields wrong: %+v", s)
	}
	almost(t, "median", s.Median, 25, 1e-12)
	almost(t, "mean", s.Mean, 25, 1e-12)
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		v, err := RegIncBeta(1, 1, x)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, "I_x(1,1)", v, x, 1e-10)
	}
	// I_0.5(a,a) = 0.5 by symmetry.
	for _, a := range []float64{0.5, 2, 7.5} {
		v, err := RegIncBeta(a, a, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, "I_0.5(a,a)", v, 0.5, 1e-10)
	}
	// I_x(2,2) = 3x^2 - 2x^3.
	for _, x := range []float64{0.1, 0.4, 0.9} {
		v, err := RegIncBeta(2, 2, x)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, "I_x(2,2)", v, 3*x*x-2*x*x*x, 1e-10)
	}
}

func TestRegIncBetaDomain(t *testing.T) {
	if _, err := RegIncBeta(-1, 1, 0.5); err == nil {
		t.Fatal("expected domain error for a<0")
	}
	if _, err := RegIncBeta(1, 1, 1.5); err == nil {
		t.Fatal("expected domain error for x>1")
	}
}

func TestNormalCDF(t *testing.T) {
	almost(t, "Phi(0)", NormalCDF(0), 0.5, 1e-12)
	almost(t, "Phi(1.96)", NormalCDF(1.959963985), 0.975, 1e-6)
	almost(t, "Phi(-1)", NormalCDF(-1), 0.158655254, 1e-6)
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.025, 0.3, 0.5, 0.8, 0.975, 0.999} {
		z, err := NormalQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, "Phi(Phi^-1(p))", NormalCDF(z), p, 1e-9)
	}
	if _, err := NormalQuantile(0); err == nil {
		t.Fatal("NormalQuantile(0) should error")
	}
}

func TestFCDFKnownValues(t *testing.T) {
	// F(d1=1,d2=7): P(F <= f) = P(|T_7| <= sqrt(f)), which for odd
	// degrees of freedom has the closed form (Abramowitz & Stegun
	// 26.7.3) (2/π)[θ + sinθ(cosθ + (2/3)cos³θ + (8/15)cos⁵θ)] with
	// θ = atan(sqrt(f)/sqrt(7)).
	fv := 4.0
	th := math.Atan(math.Sqrt(fv) / math.Sqrt(7))
	c := math.Cos(th)
	want := 2 / math.Pi * (th + math.Sin(th)*(c+2.0/3*c*c*c+8.0/15*c*c*c*c*c))
	got, err := FCDF(fv, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "F(1,7) CDF", got, want, 1e-9)
	// Critical value F_{0.95}(2, 10) ≈ 4.10.
	p, err := FSurvival(4.10, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "F surv at crit", p, 0.05, 0.002)
}

func TestProportionCI(t *testing.T) {
	iv, err := ProportionCI(50, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "point", iv.Point, 0.5, 1e-12)
	if iv.Lo > 0.5 || iv.Hi < 0.5 || iv.Lo < 0.39 || iv.Hi > 0.61 {
		t.Fatalf("Wilson interval looks wrong: %+v", iv)
	}
	// Edge cases must stay within [0,1].
	iv, err = ProportionCI(0, 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo < 0 {
		t.Fatalf("lower bound below zero: %+v", iv)
	}
	if _, err := ProportionCI(5, 0, 0.95); err == nil {
		t.Fatal("n=0 should error")
	}
}

// Property: CDFs are monotone nondecreasing and bounded in [0,1].
func TestQuickCDFMonotone(t *testing.T) {
	f := func(aRaw, bRaw uint8, x1, x2 float64) bool {
		a := float64(aRaw%50)/5 + 0.2
		b := float64(bRaw%50)/5 + 0.2
		x1 = math.Abs(math.Mod(x1, 1))
		x2 = math.Abs(math.Mod(x2, 1))
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		v1, err1 := RegIncBeta(a, b, x1)
		v2, err2 := RegIncBeta(a, b, x2)
		if err1 != nil || err2 != nil {
			return false
		}
		return v1 >= -1e-12 && v2 <= 1+1e-12 && v1 <= v2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRegIncBeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RegIncBeta(5, 7, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDescribe(b *testing.B) {
	r := rng.New(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Describe(xs)
	}
}
