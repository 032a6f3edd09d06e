package main

import (
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/serve"
)

// Each checker must accept the program's real output and reject a
// planted fault.

func newTestRand() *rand.Rand { return rand.New(rand.NewPCG(7, 11)) }

// servedVerdicts scores generated sensors with a real detector.
func servedVerdicts(t *testing.T, n int, threshold float64) (*refDeployment, []verdict) {
	t.Helper()
	d := newRefDeployment(deploy.PaperConfig())
	sensors, err := benignSensors(newTestRand(), d, n)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(deploy.MustNew(deploy.PaperConfig()), core.DiffMetric{}, threshold)
	vs := make([]verdict, n)
	for i, s := range sensors {
		v := det.Check(s.obs, s.claim)
		vs[i] = verdict{s: serve.CheckResponse{Score: v.Score, Threshold: v.Threshold, Alarm: v.Alarm}, in: s}
	}
	return d, vs
}

func TestCheckScoresRejectsPerturbedScore(t *testing.T) {
	d, vs := servedVerdicts(t, 64, 100)
	if err := checkScores(d, vs); err != nil {
		t.Fatalf("real scores rejected: %v", err)
	}
	vs[17].s.Score *= 1.01
	if err := checkScores(d, vs); err == nil {
		t.Fatal("a score perturbed by 1% passed")
	}
}

func TestCheckAlarmsRejectsFlippedAlarm(t *testing.T) {
	_, vs := servedVerdicts(t, 64, 60)
	if err := checkAlarms(vs, 60); err != nil {
		t.Fatalf("real verdicts rejected: %v", err)
	}
	vs[5].s.Alarm = !vs[5].s.Alarm
	if err := checkAlarms(vs, 60); err == nil {
		t.Fatal("a flipped alarm passed")
	}
}

func TestCheckThresholdRejectsOutsideOrderStatistics(t *testing.T) {
	model := deploy.MustNew(deploy.PaperConfig())
	det, scores, err := core.Train(model, core.DiffMetric{}, core.TrainConfig{Trials: 400, Percentile: 99, Seed: 3, KeepInField: true})
	if err != nil {
		t.Fatal(err)
	}
	snap := det.Snapshot()
	snap.Trials, snap.TrainPercentile = 400, 99
	snap.BenignSample = append([]float64(nil), scores...)
	sort.Float64s(snap.BenignSample)
	if err := checkThreshold(snap, det.Threshold()); err != nil {
		t.Fatalf("trained threshold rejected: %v", err)
	}
	moved := snap.BenignSample[len(scores)-1] + 1
	snap.Threshold = moved
	if err := checkThreshold(snap, moved); err == nil {
		t.Fatal("a threshold above every benign score passed")
	}
}

func TestCheckBenignShareRejectsWrongRate(t *testing.T) {
	if err := checkBenignShare(110, 10000, 99, 4000); err != nil {
		t.Fatalf("a 1.1%% share rejected: %v", err)
	}
	// A threshold whose true rate sits ~3σ of its training sample high,
	// seen on 512 inputs.
	if err := checkBenignShare(16, 512, 99, 4000); err != nil {
		t.Fatalf("16 of 512 rejected: %v", err)
	}
	if err := checkBenignShare(1000, 10000, 99, 4000); err == nil {
		t.Fatal("a 10% share passed")
	}
	if err := checkBenignShare(0, 10000, 99, 4000); err == nil {
		t.Fatal("a 0% share passed")
	}
	if err := checkFarRate(90, 100); err == nil {
		t.Fatal("a 90% displaced-claim alarm rate passed")
	}
}

func TestCheckCorrectionsRejectsMovedCorrection(t *testing.T) {
	d := newRefDeployment(deploy.PaperConfig())
	sensors, err := benignSensors(newTestRand(), d, 64)
	if err != nil {
		t.Fatal(err)
	}
	corr := core.NewCorrector(deploy.MustNew(deploy.PaperConfig()))
	cs := make([]correction, len(sensors))
	for i, s := range sensors {
		p, err := corr.Correct(s.obs)
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = correction{in: s, loc: p}
	}
	if err := checkCorrections(d, cs); err != nil {
		t.Fatalf("real corrections rejected: %v", err)
	}
	cs[9].loc = cs[9].loc.Add(geom.V(100, 0))
	if err := checkCorrections(d, cs); err == nil {
		t.Fatal("a correction moved 100 m passed")
	}
}

func TestCheckRestartRejectsRetrainedDetector(t *testing.T) {
	body := []byte(`{"score":1,"threshold":2,"alarm":false}`)
	ok := &restarted{adopt: serve.AdoptStats{Adopted: 1}, bodies: [][]byte{body}}
	if err := checkRestart(ok, 1, [][]byte{body}); err != nil {
		t.Fatalf("a clean adoption rejected: %v", err)
	}
	retrained := &restarted{adopt: serve.AdoptStats{Adopted: 0}, started: 1, bodies: [][]byte{body}}
	if err := checkRestart(retrained, 1, [][]byte{body}); err == nil {
		t.Fatal("a detector that retrained passed")
	}
	trainedToo := &restarted{adopt: serve.AdoptStats{Adopted: 1}, started: 1, bodies: [][]byte{body}}
	if err := checkRestart(trainedToo, 1, [][]byte{body}); err == nil || !strings.Contains(err.Error(), "training") {
		t.Fatalf("an adoption that also started training passed: %v", err)
	}
	changed := &restarted{adopt: serve.AdoptStats{Adopted: 1}, bodies: [][]byte{[]byte(`{"score":1.5,"threshold":2,"alarm":false}`)}}
	if err := checkRestart(changed, 1, [][]byte{body}); err == nil {
		t.Fatal("a changed verdict after restart passed")
	}
}
