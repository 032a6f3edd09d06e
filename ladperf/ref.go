package main

import (
	"math"

	"repro/internal/deploy"
	"repro/internal/geom"
)

// This file is the benchmark's independent reference for the paper's
// deployment knowledge. It evaluates Theorem 1 by its own quadrature and
// uses neither deploy.GTable nor deploy.GExact, so a served score that
// agrees with it agrees with the paper, not with a copy of the program.

// quadPoints is the number of Simpson intervals of thm1G's integral.
const quadPoints = 512

// thm1G evaluates Theorem 1: the probability that a node whose resident
// point is an isotropic Gaussian (σ) around its deployment point lies
// within r of a point z away from that deployment point,
//
//	g(z) = 1{z<R}·(1 − e^{−(R−z)²/2σ²})
//	     + ∫_{|z−R|}^{z+R} f(ℓ)·2ℓ·acos((ℓ²+z²−R²)/(2ℓz)) dℓ,
//
// f(ℓ) = e^{−ℓ²/2σ²}/(2πσ²). The substitution ℓ = lo + (hi−lo)(1−cos θ)/2
// removes the square-root endpoint behaviour of the acos term, so plain
// composite Simpson in θ converges fast.
func thm1G(z, r, sigma float64) float64 {
	z = math.Abs(z)
	s2 := sigma * sigma
	if z == 0 {
		return 1 - math.Exp(-r*r/(2*s2))
	}
	var g float64
	if z < r {
		d := r - z
		g = 1 - math.Exp(-d*d/(2*s2))
	}
	lo, hi := math.Abs(z-r), z+r
	// The Gaussian weight is below e^{-72} beyond 12σ.
	if cut := 12 * sigma; hi > cut {
		if lo >= cut {
			return g
		}
		hi = cut
	}
	half := (hi - lo) / 2
	f := func(theta float64) float64 {
		l := lo + half*(1-math.Cos(theta))
		if l <= 0 {
			return 0
		}
		c := (l*l + z*z - r*r) / (2 * l * z)
		c = math.Max(-1, math.Min(1, c))
		return math.Exp(-l*l/(2*s2)) / (2 * math.Pi * s2) * 2 * l * math.Acos(c) * half * math.Sin(theta)
	}
	h := math.Pi / quadPoints
	sum := f(0) + f(math.Pi)
	for k := 1; k < quadPoints; k++ {
		w := 2.0
		if k%2 == 1 {
			w = 4
		}
		sum += w * f(float64(k)*h)
	}
	return math.Max(0, math.Min(1, g+sum*h/3))
}

// refStep is the spacing of the reference table in metres. Its linear
// interpolation error (h²/8·max|d²g/dz²|) is ~1e-7, far below the served
// table's, so it adds nothing measurable to the score tolerance.
const refStep = 0.05

// gRef is thm1G tabulated for one (R, σ) pair on [0, R+6σ]; beyond that
// g is treated as 0, as the paper's table does.
type gRef struct {
	r, sigma, maxZ float64
	vals           []float64
	// maxG2 bounds |d²g/dz²| over the table domain, measured by second
	// differences of thm1G; it sizes the served table's interpolation
	// error in scoreTolerance.
	maxG2 float64
}

func newGRef(r, sigma float64) *gRef {
	maxZ := r + 6*sigma
	n := int(math.Ceil(maxZ/refStep)) + 1
	t := &gRef{r: r, sigma: sigma, maxZ: maxZ, vals: make([]float64, n+1)}
	for i := range t.vals {
		t.vals[i] = thm1G(float64(i)*refStep, r, sigma)
	}
	const d = 0.5 // second-difference spacing, m
	for z := d; z < maxZ-d; z += d {
		g2 := math.Abs(thm1G(z+d, r, sigma)-2*thm1G(z, r, sigma)+thm1G(z-d, r, sigma)) / (d * d)
		t.maxG2 = math.Max(t.maxG2, g2)
	}
	return t
}

// at returns g(z) by linear interpolation in the reference table.
func (t *gRef) at(z float64) float64 {
	if z >= t.maxZ {
		return 0
	}
	pos := z / refStep
	i := int(pos)
	frac := pos - float64(i)
	return t.vals[i]*(1-frac) + t.vals[i+1]*frac
}

// refDeployment is the benchmark's own view of a grid deployment: the
// cell-centre deployment points and the reference g table.
type refDeployment struct {
	cfg deploy.Config
	pts []geom.Point
	g   *gRef
}

func newRefDeployment(cfg deploy.Config) *refDeployment {
	if cfg.Layout != deploy.LayoutGrid {
		panic("ladperf: reference deployments are grid layouts")
	}
	cw := cfg.Field.Width() / float64(cfg.GroupsX)
	ch := cfg.Field.Height() / float64(cfg.GroupsY)
	d := &refDeployment{cfg: cfg, g: newGRef(cfg.Range, cfg.Sigma)}
	for gy := 0; gy < cfg.GroupsY; gy++ {
		for gx := 0; gx < cfg.GroupsX; gx++ {
			d.pts = append(d.pts, geom.Pt(cfg.Field.Min.X+(float64(gx)+0.5)*cw, cfg.Field.Min.Y+(float64(gy)+0.5)*ch))
		}
	}
	return d
}

// diffScore is the paper's Difference metric Σ_i |o_i − m·g_i(le)|
// recomputed from the reference table. It also returns how many groups
// lie within R+6σ of le, which scales the tolerance.
func (d *refDeployment) diffScore(o []int, le geom.Point) (score float64, near int) {
	m := float64(d.cfg.GroupSize)
	for i, p := range d.pts {
		g := d.g.at(le.Dist(p))
		if g > 0 {
			near++
		}
		score += math.Abs(float64(o[i]) - m*g)
	}
	return score, near
}

// scoreTolerance bounds |served − reference| for a Diff score over near
// groups: each group's expected count differs by at most m times the
// served table's linear-interpolation error (ω sub-ranges over [0, R+6σ],
// error ≤ h²/8·max|d²g/dz²|) plus the reference table's own.
func (d *refDeployment) scoreTolerance(near int) float64 {
	h := d.g.maxZ / float64(deploy.DefaultOmega)
	perGroup := (h*h/8 + refStep*refStep/8) * d.g.maxG2 * 1.5
	return float64(d.cfg.GroupSize)*float64(near)*(perGroup+1e-9) + 1e-9
}

// logClamp keeps log-likelihood terms finite for impossible counts, the
// convention of the paper's likelihood localization.
const logClamp = 1e-9

// logLikelihood is ln Pr(o | sensor at p) under the deployment model:
// Σ_i o_i ln g_i + (m − o_i) ln(1 − g_i), g clamped into [ε, 1−ε].
func (d *refDeployment) logLikelihood(o []int, p geom.Point) float64 {
	m := d.cfg.GroupSize
	var ll float64
	for i, dp := range d.pts {
		g := math.Max(logClamp, math.Min(1-logClamp, d.g.at(p.Dist(dp))))
		ll += float64(o[i])*math.Log(g) + float64(m-o[i])*math.Log1p(-g)
	}
	return ll
}
