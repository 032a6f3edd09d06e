package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/localize"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
)

// sizes fixes how much work a run does. fullSizes is the benchmark;
// smokeSizes keeps every workload's path but finishes in seconds, for
// go test.
type sizes struct {
	servedTrials int // training trials of the served detector
	setupReps    int // set-ups per run; setup_s is their median
	restartReps  int // restarts per check-workload run
	hotSensors   int // batch-hot benign sensor pool (claims fit the cache)
	hotBodies    int // distinct batch bodies
	batch        int // items per batch
	farPerBatch  int // displaced claims per batch
	coldSensors  int // sensor-cold working set (far beyond the cache)
	coldWarm     int // untimed sensor-cold requests before measuring
	coldFarEvery int // every n-th sensor-cold request is a displaced check
	correctEvery int // every n-th sensor-cold request is a /correct
	burstSpecs   int // registrations per cold-start burst
	burstTrials  int // training trials of each burst spec
	replayTrials int // trials per spec the traced run replays stage by stage
	scoreSample  int // served scores re-derived from the reference per run
	correctCheck int // corrections checked against the reference per run
	clients      int // closed-loop clients
}

var fullSizes = sizes{
	servedTrials: 4000, setupReps: 15, restartReps: 31,
	hotSensors: 512, hotBodies: 512, batch: 64, farPerBatch: 8,
	coldSensors: 16384, coldWarm: 2048, coldFarEvery: 8, correctEvery: 4,
	burstSpecs: 16, burstTrials: 2000, replayTrials: 200,
	scoreSample: 512, correctCheck: 256,
}

var smokeSizes = sizes{
	servedTrials: 600, setupReps: 2, restartReps: 2,
	hotSensors: 64, hotBodies: 8, batch: 64, farPerBatch: 8,
	coldSensors: 1024, coldWarm: 64, coldFarEvery: 8, correctEvery: 4,
	burstSpecs: 5, burstTrials: 300, replayTrials: 20,
	scoreSample: 64, correctCheck: 32,
}

// waitLimit bounds every wait on the program (training, saves), so a
// hung program fails the run instead of the run's time limit.
const waitLimit = 120 * time.Second

// run is one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	sz       sizes
	rng      *rand.Rand
	area     *storeArea
	paper    *refDeployment
	served   serve.DetectorSpec
	epoch    time.Time // span clock origin
	deadline time.Time

	checks    []checkResult
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	trace     *spanLog
	notes     []string
}

type checkResult struct {
	name string
	err  error
}

func newRun(workload string, seed uint64, seconds float64, traced bool, sz sizes, area *storeArea) *run {
	now := time.Now()
	sz.clients = min(2, runtime.NumCPU())
	return &run{
		workload: workload, seed: seed, seconds: seconds, traced: traced, sz: sz,
		rng:   rand.New(rand.NewPCG(seed, 0x6c6164706572660a)),
		area:  area,
		paper: newRefDeployment(deploy.PaperConfig()),
		served: serve.DetectorSpec{
			Deployment: deploy.PaperConfig(),
			Metric:     "diff",
			Train:      serve.TrainSpec{Trials: sz.servedTrials, Percentile: 99, Seed: seed, KeepInField: true, SimEpoch: 1},
		},
		epoch:    now,
		deadline: now.Add(waitLimit),
		e2e:      make(map[string]float64),
		layer:    make(map[string]float64),
		trace:    newSpanLog(now, 0x7f<<24),
	}
}

// check records one check's outcome. A check repeated (once per round)
// is listed once and keeps its first failure.
func (r *run) check(name string, err error) {
	for i := range r.checks {
		if r.checks[i].name == name {
			if r.checks[i].err == nil {
				r.checks[i].err = err
			}
			return
		}
	}
	r.checks = append(r.checks, checkResult{name: name, err: err})
}

func (r *run) correct() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return len(r.checks) > 0
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupServed builds the served program sz.setupReps times: a fresh
// store, the server and its pool, then registers the served spec over
// HTTP and waits until it is ready. setup_s is the median; the last
// instance serves. Every rep trains the same epoch-1 spec, so their
// thresholds must be bit-identical.
func (r *run) setupServed() (*server, string, float64, error) {
	var took, thresholds []float64
	var srv *server
	var id string
	for rep := 0; rep < r.sz.setupReps; rep++ {
		if srv != nil {
			srv.release()
		}
		start := time.Now()
		st, err := r.area.fresh()
		if err != nil {
			return nil, "", 0, err
		}
		s, err := newServer(r.served, st)
		if err != nil {
			return nil, "", 0, err
		}
		c := newConn(s.h)
		if id, err = c.register(r.served); err != nil {
			return nil, "", 0, err
		}
		if _, err := c.waitReady([]string{id}, r.deadline); err != nil {
			return nil, "", 0, err
		}
		took = append(took, time.Since(start).Seconds())
		if err := s.drainSaves(1, r.deadline); err != nil {
			return nil, "", 0, err
		}
		dj, err := c.status(id)
		if err != nil {
			return nil, "", 0, err
		}
		thresholds = append(thresholds, *dj.Threshold)
		srv = s
	}
	r.e2e["setup_s"] = median(took)
	r.note("setup: %d set-ups, median %.4f s (min %.4f, max %.4f)", len(took), median(took), minOf(took), maxOf(took))
	var err error
	for _, th := range thresholds[1:] {
		if th != thresholds[0] {
			err = fmt.Errorf("set-ups trained thresholds %v, want one value", thresholds)
		}
	}
	r.check("set-ups train bit-identical thresholds", err)
	snap, err := srv.snapshot(id)
	if err == nil {
		err = checkThreshold(snap, thresholds[len(thresholds)-1])
	}
	r.check("served threshold within its snapshot's order statistics", err)
	return srv, id, thresholds[len(thresholds)-1], nil
}

// restartServed restarts the served program sz.restartReps times over
// its store and checks adoption; restart_s is the median.
func (r *run) restartServed(srv *server, id string, probe []byte) error {
	c := newConn(srv.h)
	status, body := c.do("POST", "/v2/detectors/"+id+"/check", probe)
	if status != http.StatusOK {
		return fmt.Errorf("pre-restart check: status %d: %s", status, body)
	}
	before := [][]byte{append([]byte(nil), body...)}
	var took []float64
	var err error
	for rep := 0; rep < r.sz.restartReps; rep++ {
		rs, rerr := restart(r.area, r.served, srv.st, []string{id}, [][]byte{probe})
		if rerr != nil {
			return rerr
		}
		took = append(took, rs.took.Seconds())
		if cerr := checkRestart(rs, 1, before); cerr != nil && err == nil {
			err = cerr
		}
		if r.traced {
			r.replayRestart(rs, []string{id}, [][]byte{probe}, false)
		}
	}
	r.e2e["restart_s"] = median(took)
	r.note("restart: %d restarts of 1 detector, median %.4f s", len(took), median(took))
	r.check("restart adopts without training, verdicts bit-identical", err)
	return nil
}

// replayRestart records the restart path's stages: snapshot decode and
// detector restore per stored snapshot and the first checks' latency.
// With requests set, each first check also counts as a served request
// and its stages are replayed (cold-start, whose only checks these are).
func (r *run) replayRestart(rs *restarted, ids []string, checks [][]byte, requests bool) {
	l := r.trace
	for i, id := range ids {
		root, t0 := l.id(), l.now()
		if requests {
			replayRequest(l, root, rs.srv.pool, id, opCheck, checks[i])
			l.sums["serve.handler"] = addAgg(l.sums["serve.handler"], rs.first[i])
		}
		l.sums["serve.first_check"] = addAgg(l.sums["serve.first_check"], rs.first[i])
		data, err := rs.srv.st.fs.Get(id)
		if err == nil {
			var snap *core.Snapshot
			l.child(root, "core.snapshot_decode", func() { snap, err = core.DecodeSnapshot(data) })
			if err == nil {
				l.child(root, "core.restore", func() { _, err = core.RestoreDetector(snap) })
			}
		}
		l.record(root, -1, "restart.replay", t0)
	}
}

func addAgg(a *agg, d time.Duration) *agg {
	if a == nil {
		a = &agg{}
	}
	a.n++
	a.nanos += d.Nanoseconds()
	return a
}

// replayTraining runs sz.replayTrials trials of each spec through the
// training layers' public calls on one goroutine: deploy.New, one
// TrainRun.RunBatch, and then the trial body stage by stage (observation
// sampling, localization, metric scoring).
func (r *run) replayTraining(specs []serve.DetectorSpec) error {
	l := r.trace
	n := r.sz.replayTrials
	for k, spec := range specs {
		root, t0 := l.id(), l.now()
		var model *deploy.Model
		var err error
		l.child(root, "deploy.new", func() { model, err = deploy.New(spec.Deployment) })
		if err != nil {
			return err
		}
		metric := core.MetricByName(spec.Metric)
		cfg := spec.Train.TrainConfig()
		cfg.Trials, cfg.Workers = n, 1
		tr, err := core.NewTrainRun(model, metric, cfg)
		if err != nil {
			return err
		}
		l.child(root, "core.trial", func() { _, err = tr.RunBatch(n) })
		if err != nil {
			return err
		}
		l.count("core.trials", n)

		g := rng.New(r.seed + uint64(k))
		loc := localize.NewBeaconlessModel(model)
		loc.SetSimEpoch(spec.Train.SimEpoch)
		sess := loc.NewSession()
		o := make([]int, model.NumGroups())
		e := core.NewExpectation(model, model.Field().Center())
		epoch2 := spec.Train.SimEpoch >= 2
		for t := 0; t < n; t++ {
			group, la := model.SampleLocation(g)
			for spec.Train.KeepInField && !model.Field().Contains(la) {
				group, la = model.SampleLocation(g)
			}
			ts := l.now()
			if epoch2 {
				model.SampleObservationTableInto(o, la, group, g)
			} else {
				model.SampleObservationInto(o, la, group, g)
			}
			ts = l.record(l.id(), root, "deploy.sample", ts)
			le, lerr := sess.BindLocalize(o)
			l.record(l.id(), root, "localize.localize", ts)
			if lerr != nil {
				continue
			}
			e.Fill(model, le)
			ts = l.now()
			metric.Score(o, e)
			l.record(l.id(), root, "core.metric_score", ts)
		}
		l.record(root, -1, "train.replay", t0)
	}
	return nil
}

// schedLayer records the scheduler's mean queue wait, mean run time per
// job and batch count over the pools that trained.
func (r *run) schedLayer(stats []sched.Stats) {
	var waitSum, runSum float64
	var waitN, runN, batches uint64
	for _, s := range stats {
		waitSum += s.Wait.Sum
		waitN += s.Wait.Count
		runSum += s.Run.Sum
		runN += s.Run.Count
		batches += s.Batches
	}
	r.layer["sched.wait_s"] = waitSum / float64(max(1, waitN))
	r.layer["sched.run_s"] = runSum / float64(max(1, runN))
	r.layer["sched.batches"] = float64(batches) / float64(max(1, runN))
}

// finishLayers turns the merged spans and the store counters into the
// per-layer metrics every workload reports.
func (r *run) finishLayers(ops int, gcCycles uint32, gcPause time.Duration, trained int) {
	l := r.trace
	ops = max(ops, 1)
	per := func(name string) float64 { _, ns := l.total(name); return float64(ns) / float64(ops) }
	handler, decode, resolve, encode := per("serve.handler"), per("serve.decode"), per("serve.resolve"), per("serve.encode")
	score, corr := per("core.score"), per("localize.correct")
	r.layer["serve.decode_us"] = decode / 1e3
	r.layer["serve.resolve_us"] = resolve / 1e3
	r.layer["serve.encode_us"] = encode / 1e3
	r.layer["serve.handler_us"] = handler / 1e3
	r.layer["serve.other_us"] = (handler - decode - resolve - score - corr - encode) / 1e3
	r.layer["serve.first_check_ms"] = l.meanNanos("serve.first_check") / 1e6
	_, scoreNs := l.total("core.score")
	obs, _ := l.total("core.score_obs")
	r.layer["core.score_ns_per_obs"] = float64(scoreNs) / float64(max(1, obs))
	_, trialNs := l.total("core.trial")
	trials, _ := l.total("core.trials")
	r.layer["core.trial_us"] = float64(trialNs) / float64(max(1, trials)) / 1e3
	r.layer["core.metric_score_ns"] = l.meanNanos("core.metric_score")
	r.layer["core.snapshot_decode_us"] = l.meanNanos("core.snapshot_decode") / 1e3
	r.layer["core.restore_ms"] = l.meanNanos("core.restore") / 1e6
	r.layer["deploy.expectation_us"] = l.meanNanos("deploy.expectation") / 1e3
	r.layer["deploy.sample_us"] = l.meanNanos("deploy.sample") / 1e3
	r.layer["deploy.new_ms"] = l.meanNanos("deploy.new") / 1e6
	r.layer["localize.correct_us"] = l.meanNanos("localize.correct") / 1e3
	r.layer["localize.localize_us"] = l.meanNanos("localize.localize") / 1e3

	t := r.area.totals()
	r.layer["store.puts"] = float64(t.puts) / float64(max(1, trained))
	r.layer["store.put_ms"] = float64(t.putNanos) / float64(max(1, t.puts)) / 1e6
	r.layer["store.put_bytes"] = float64(t.putBytes) / float64(max(1, t.puts))
	r.layer["store.get_ms"] = float64(t.getNanos) / float64(max(1, t.gets)) / 1e6
	r.layer["gc.cycles"] = float64(gcCycles)
	r.layer["gc.pause_ms"] = float64(gcPause) / 1e6
}

// gcDelta reads the collector's cycle and pause totals.
func gcTotals() (uint32, time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Statistics over samples.

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
