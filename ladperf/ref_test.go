package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/deploy"
)

func TestThm1GClosedFormAtZero(t *testing.T) {
	for _, c := range []struct{ r, sigma float64 }{{50, 50}, {55, 45}, {30, 80}} {
		want := 1 - math.Exp(-c.r*c.r/(2*c.sigma*c.sigma))
		if got := thm1G(0, c.r, c.sigma); got != want {
			t.Errorf("g(0; R=%g, σ=%g) = %v, want %v", c.r, c.sigma, got, want)
		}
		// The quadrature path must meet the closed form as z → 0.
		if got := thm1G(1e-4, c.r, c.sigma); math.Abs(got-want) > 1e-5 {
			t.Errorf("g(1e-4; R=%g, σ=%g) = %v, want ≈ %v", c.r, c.sigma, got, want)
		}
	}
}

func TestThm1GVanishesBeyondTail(t *testing.T) {
	r, sigma := 50.0, 50.0
	if g := thm1G(r+6*sigma+1, r, sigma); g > 1e-6 {
		t.Errorf("g(R+6σ+1) = %v, want < 1e-6", g)
	}
	if g := thm1G(r+12*sigma+1, r, sigma); g != 0 {
		t.Errorf("g(R+12σ+1) = %v, want 0", g)
	}
	ref := newGRef(r, sigma)
	if g := ref.at(r + 6*sigma); g != 0 {
		t.Errorf("table at R+6σ = %v, want 0", g)
	}
}

func TestThm1GDecreasesWithDistance(t *testing.T) {
	prev := thm1G(0, 50, 50)
	for z := 1.0; z < 350; z++ {
		g := thm1G(z, 50, 50)
		if g > prev+1e-12 {
			t.Fatalf("g(%g) = %v > g(%g) = %v", z, g, z-1, prev)
		}
		prev = g
	}
}

// The reference and the program's adaptive quadrature are independent
// implementations of Theorem 1; they must agree.
func TestThm1GAgreesWithProgramQuadrature(t *testing.T) {
	for _, z := range []float64{0.5, 10, 49.9, 50, 50.1, 80, 150, 250, 340} {
		got, want := thm1G(z, 50, 50), deploy.GExact(z, 50, 50)
		if math.Abs(got-want) > 1e-8 {
			t.Errorf("g(%g): reference %v, program %v", z, got, want)
		}
	}
}

func TestReferenceTableMatchesQuadrature(t *testing.T) {
	ref := newGRef(50, 50)
	for z := 0.013; z < ref.maxZ; z += 3.7 {
		if got, want := ref.at(z), thm1G(z, 50, 50); math.Abs(got-want) > 1e-6 {
			t.Errorf("table g(%g) = %v, quadrature %v", z, got, want)
		}
	}
	if ref.maxG2 <= 0 || ref.maxG2 > 1e-2 {
		t.Errorf("max |g''| = %v, want a small positive bound", ref.maxG2)
	}
}

func TestBinomialMean(t *testing.T) {
	r := newTestRand()
	for _, c := range []struct {
		n int
		p float64
	}{{300, 0.01}, {300, 0.4}, {299, 0.9}} {
		sum := 0
		const draws = 20000
		for i := 0; i < draws; i++ {
			k := binomial(r, c.n, c.p)
			if k < 0 || k > c.n {
				t.Fatalf("Binomial(%d, %g) drew %d", c.n, c.p, k)
			}
			sum += k
		}
		mean, want := float64(sum)/draws, float64(c.n)*c.p
		sd := math.Sqrt(float64(c.n) * c.p * (1 - c.p) / draws)
		if math.Abs(mean-want) > 5*sd {
			t.Errorf("Binomial(%d, %g) mean %v, want %v ± %v", c.n, c.p, mean, want, 5*sd)
		}
	}
}

func TestLatHistQuantile(t *testing.T) {
	var h latHist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 1000 / 1e3 // ms
		if got := h.quantile(q); math.Abs(got-want)/want > 0.006 {
			t.Errorf("q%.2f = %v ms, want %v", q, got, want)
		}
	}
}
