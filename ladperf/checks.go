package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/serve"
)

// Correctness checks. Each compares the program's outputs with an
// independent computation (the reference quadrature in ref.go) or with a
// property the method guarantees; none compares with stored output.

// verdict is one served verdict with the input it answered.
type verdict struct {
	s  serve.CheckResponse
	in sensor
}

// checkAlarms: every verdict alarms exactly when its score exceeds the
// detector's threshold, and carries that threshold.
func checkAlarms(vs []verdict, threshold float64) error {
	for i, v := range vs {
		if v.s.Threshold != threshold {
			return fmt.Errorf("verdict %d carries threshold %v, detector has %v", i, v.s.Threshold, threshold)
		}
		if v.s.Alarm != (v.s.Score > threshold) {
			return fmt.Errorf("verdict %d: alarm=%v with score %v and threshold %v", i, v.s.Alarm, v.s.Score, threshold)
		}
	}
	return nil
}

// checkScores recomputes Diff scores from Theorem 1 by quadrature and
// requires agreement within the served g table's interpolation error.
func checkScores(d *refDeployment, vs []verdict) error {
	for i, v := range vs {
		ref, near := d.diffScore(v.in.obs, v.in.claim)
		if tol := d.scoreTolerance(near); math.Abs(v.s.Score-ref) > tol {
			return fmt.Errorf("verdict %d: served score %v, reference %v (tolerance %.3g)", i, v.s.Score, ref, tol)
		}
	}
	return nil
}

// shareZ bounds how far, in standard deviations, the trained threshold's
// true false-positive rate may sit from 1 − τ/100: it is an empirical
// quantile of trainN benign scores. shareAlpha is the binomial tail
// probability below which an alarm count is rejected. Together they make
// a correct detector fail with probability ~1e-5 on any seed.
const (
	shareZ     = 4.0
	shareAlpha = 1e-6
)

// checkBenignShare: a threshold cut at the τ-percentile of trainN benign
// scores alarms on a share near 1 − τ/100 of fresh benign inputs. The
// count of alarms among n inputs must be a plausible Binomial(n, p) draw
// for some p within shareZ standard deviations of the threshold's
// sampling error around 1 − τ/100 (exact binomial tails).
func checkBenignShare(alarms, n int, tau float64, trainN int) error {
	if n == 0 {
		return fmt.Errorf("no benign verdicts")
	}
	p := 1 - tau/100
	sd := math.Sqrt(p * (1 - p) / float64(trainN))
	lo, hi := math.Max(p-shareZ*sd, 1e-12), math.Min(p+shareZ*sd, 1)
	if tail := binomTail(n, hi, alarms, true); tail < shareAlpha {
		return fmt.Errorf("benign alarm share %.4f (%d of %d) too high: P(≥%d | p=%.4f) = %.2g", float64(alarms)/float64(n), alarms, n, alarms, hi, tail)
	}
	if tail := binomTail(n, lo, alarms, false); tail < shareAlpha {
		return fmt.Errorf("benign alarm share %.4f (%d of %d) too low: P(≤%d | p=%.4f) = %.2g", float64(alarms)/float64(n), alarms, n, alarms, lo, tail)
	}
	return nil
}

// binomTail is P(X ≥ k) (upper) or P(X ≤ k) for X ~ Binomial(n, p).
func binomTail(n int, p float64, k int, upper bool) float64 {
	lgn, _ := math.Lgamma(float64(n + 1))
	var sum float64
	for i := 0; i <= n; i++ {
		if (upper && i < k) || (!upper && i > k) {
			continue
		}
		lgi, _ := math.Lgamma(float64(i + 1))
		lgr, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lgn - lgi - lgr + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return sum
}

// minFarAlarmRate is the least share of claims displaced by farDistance
// that must alarm.
const minFarAlarmRate = 0.98

func checkFarRate(alarms, n int) error {
	if n == 0 {
		return fmt.Errorf("no displaced-claim verdicts")
	}
	if rate := float64(alarms) / float64(n); rate < minFarAlarmRate {
		return fmt.Errorf("displaced claims alarm at %.4f (%d of %d), want at least %.2f", rate, alarms, n, minFarAlarmRate)
	}
	return nil
}

// checkThreshold: the served threshold lies between the order statistics
// around the τ-percentile of the benign sample stored in the detector's
// own snapshot, and that sample has the trained size and is ascending.
func checkThreshold(snap *core.Snapshot, served float64) error {
	s := snap.BenignSample
	if len(s) != snap.Trials {
		return fmt.Errorf("snapshot holds %d benign scores for %d trials", len(s), snap.Trials)
	}
	if !sort.Float64sAreSorted(s) {
		return fmt.Errorf("snapshot benign sample is not ascending")
	}
	pos := snap.TrainPercentile / 100 * float64(len(s)-1)
	lo, hi := s[int(math.Floor(pos))], s[int(math.Ceil(pos))]
	if served < lo || served > hi || snap.Threshold != served {
		return fmt.Errorf("threshold %v (snapshot %v) outside order statistics [%v, %v] at τ=%v of %d scores",
			served, snap.Threshold, lo, hi, snap.TrainPercentile, len(s))
	}
	return nil
}

// correction is one served /correct answer for a benign sensor.
type correction struct {
	in  sensor
	loc geom.Point
}

// Corrections are the maximum-likelihood location of the observation,
// so (a) no correction may be much less likely than the truth, and (b)
// they land near the truth: the median error and the share beyond
// maxCorrectionErr are bounded.
const (
	// llSlack allows for the served log-likelihood table's error and a
	// pattern search stopping within its final step, in nats.
	llSlack = 1.0
	// maxMedianCorrectionErr bounds the median distance to the truth, m.
	maxMedianCorrectionErr = 30
	// maxCorrectionErr and maxFarCorrections: at most this share of
	// corrections may land farther than maxCorrectionErr from the truth.
	maxCorrectionErr  = 100
	maxFarCorrections = 0.01
)

func checkCorrections(d *refDeployment, cs []correction) error {
	if len(cs) == 0 {
		return fmt.Errorf("no corrections")
	}
	errs := make([]float64, len(cs))
	far := 0
	for i, c := range cs {
		llc, llt := d.logLikelihood(c.in.obs, c.loc), d.logLikelihood(c.in.obs, c.in.truth)
		if llc < llt-llSlack {
			return fmt.Errorf("correction %d: log-likelihood %.2f at %v below %.2f at the truth %v", i, llc, c.loc, llt, c.in.truth)
		}
		errs[i] = c.loc.Dist(c.in.truth)
		if errs[i] > maxCorrectionErr {
			far++
		}
	}
	sort.Float64s(errs)
	if med := errs[len(errs)/2]; med > maxMedianCorrectionErr {
		return fmt.Errorf("median correction error %.1f m, want at most %d m", med, maxMedianCorrectionErr)
	}
	if share := float64(far) / float64(len(cs)); share > maxFarCorrections {
		return fmt.Errorf("%.4f of corrections land over %d m from the truth, want at most %.2f", share, maxCorrectionErr, maxFarCorrections)
	}
	return nil
}

// checkRestart: every stored detector was adopted, none retrained, and
// each answers its check bit-identically to before the restart.
func checkRestart(r *restarted, want int, before [][]byte) error {
	if r.adopt.Adopted != want {
		return fmt.Errorf("adopted %d of %d detectors (%s)", r.adopt.Adopted, want, r.adopt)
	}
	if r.started != 0 {
		return fmt.Errorf("restarted pool started %d training jobs", r.started)
	}
	for i := range before {
		if !bytes.Equal(before[i], r.bodies[i]) {
			return fmt.Errorf("detector %d answers %s after restart, %s before", i, r.bodies[i], before[i])
		}
	}
	return nil
}

// decodeVerdicts parses a batch response and pairs it with its inputs.
func decodeVerdicts(body []byte, in []sensor) ([]verdict, error) {
	var resp serve.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(in) {
		return nil, fmt.Errorf("%d results for %d items", len(resp.Results), len(in))
	}
	out := make([]verdict, len(in))
	for i, r := range resp.Results {
		out[i] = verdict{s: r, in: in[i]}
	}
	return out, nil
}
