package markov

import (
	"math"
	"testing"
)

func TestMeanTimeToAbsorptionSerial(t *testing.T) {
	// A → B → C(absorbing), rates r1, r2: E[T from A] = 1/r1 + 1/r2.
	c := NewChain()
	a := c.State("A")
	b := c.State("B")
	cc := c.State("C")
	c.Transition(a, b, 2).Transition(b, cc, 4)
	mt, err := c.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mt[a]-0.75) > 1e-12 {
		t.Fatalf("E[T_A] = %v, want 0.75", mt[a])
	}
	if math.Abs(mt[b]-0.25) > 1e-12 {
		t.Fatalf("E[T_B] = %v, want 0.25", mt[b])
	}
}

func TestMeanTimeWithLoop(t *testing.T) {
	// A → B (rate 1); B → A (rate 1), B → C absorbing (rate 1).
	// From B: exit rate 2; with prob 1/2 absorb, 1/2 back to A.
	// E_B = 1/2 + 1/2 E_A ; E_A = 1 + E_B → E_B = 2, E_A = 3.
	c := NewChain()
	a := c.State("A")
	b := c.State("B")
	cc := c.State("C")
	c.Transition(a, b, 1).Transition(b, a, 1).Transition(b, cc, 1)
	mt, err := c.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mt[a]-3) > 1e-9 || math.Abs(mt[b]-2) > 1e-9 {
		t.Fatalf("E = %v, want A:3 B:2", mt)
	}
}

func TestMeanTimeUnreachableAbsorption(t *testing.T) {
	// Two states cycling forever, no absorbing reachable.
	c := NewChain()
	a := c.State("A")
	b := c.State("B")
	c.State("C") // absorbing but unreachable
	c.Transition(a, b, 1).Transition(b, a, 1)
	if _, err := c.MeanTimeToAbsorption(); err == nil {
		t.Fatal("singular system accepted")
	}
}

func TestTransitionPanics(t *testing.T) {
	c := NewChain()
	a := c.State("A")
	b := c.State("B")
	for name, fn := range map[string]func(){
		"self-loop":     func() { c.Transition(a, a, 1) },
		"zero rate":     func() { c.Transition(a, b, 0) },
		"negative rate": func() { c.Transition(a, b, -1) },
		"unknown state": func() { c.Transition(a, StateID(9), 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
}

func TestMadanMTTSF(t *testing.T) {
	// With detectRate = 0 the model is a pure series chain:
	// MTTSF = 1/vuln + 1/attack + 1/fail.
	m := NewMadanModel(0.5, 1, 2, 1e-12, 1)
	got, err := m.MTTSF()
	if err != nil {
		t.Fatal(err)
	}
	want := 1/0.5 + 1.0/1 + 1.0/2
	if math.Abs(got-want) > 1e-3 {
		t.Fatalf("MTTSF = %v, want ~%v", got, want)
	}
}

func TestMadanDetectionExtendsMTTSF(t *testing.T) {
	base := NewMadanModel(1, 1, 1, 0.0001, 2)
	strong := NewMadanModel(1, 1, 1, 5, 2)
	b, err := base.MTTSF()
	if err != nil {
		t.Fatal(err)
	}
	s, err := strong.MTTSF()
	if err != nil {
		t.Fatal(err)
	}
	if s <= b {
		t.Fatalf("stronger detection should raise MTTSF: %v <= %v", s, b)
	}
	// Analytic check: each Attacked visit absorbs with p = fail/(fail+detect).
	// Expected number of Good→Attacked cycles = 1/p; each cycle takes
	// 1/vuln + 1/attack + 1/(fail+detect), plus recovery 1/recover for
	// every detected (non-final) cycle.
	p := 1.0 / 6.0
	cycles := 1 / p
	cycleTime := 1.0 + 1.0 + 1.0/6.0
	want := cycles*cycleTime + (cycles-1)*0.5
	if math.Abs(s-want) > 1e-6 {
		t.Fatalf("MTTSF = %v, want %v", s, want)
	}
}

func TestMadanDiversityEffect(t *testing.T) {
	// Diversifying components lowers vulnerability discovery and attack
	// rates → MTTSF must increase monotonically.
	prev := 0.0
	for i, scale := range []float64{1, 0.5, 0.25, 0.1} {
		m := NewMadanModel(2*scale, 1*scale, 1, 0.5, 2)
		v, err := m.MTTSF()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && v <= prev {
			t.Fatalf("MTTSF not increasing under diversification: %v <= %v", v, prev)
		}
		prev = v
	}
}

func BenchmarkMTTSF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := NewMadanModel(0.5, 1, 2, 0.7, 1)
		if _, err := m.MTTSF(); err != nil {
			b.Fatal(err)
		}
	}
}
