package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/sched"
	"repro/internal/serve"
)

var workloads = map[string]func(*run) error{
	"batch-hot":   func(r *run) error { return r.runHot(true) },
	"sensor-cold": func(r *run) error { return r.runHot(false) },
	"cold-start":  (*run).runColdStart,
}

// runHot is batch-hot (batch) or sensor-cold (!batch): generate the
// inputs, set up and train the served detector, warm up, measure the
// closed loop, check every distinct response, then restart.
func (r *run) runHot(batch bool) error {
	n := r.sz.coldSensors
	if batch {
		n = r.sz.hotSensors
	}
	pool, err := benignSensors(r.rng, r.paper, n)
	if err != nil {
		return err
	}
	var ops []op
	if batch {
		ops = batchHotOps(r.rng, pool, r.sz)
	} else {
		ops = sensorColdOps(r.rng, pool, r.sz)
	}
	srv, id, threshold, err := r.setupServed()
	if err != nil {
		return err
	}
	h := newHotRun(r, srv, id, ops)
	warm := len(ops)
	if !batch {
		warm = r.sz.coldWarm
	}
	if err := h.warm(warm); err != nil {
		return err
	}
	det, _, _ := srv.pool.Detector(id)

	measure := time.Duration(r.seconds * float64(time.Second))
	if r.traced {
		measure /= 2 // the other half runs traced
	}
	_, hits0, misses0 := det.ExpCacheStats()
	gc0, pause0 := gcTotals()
	nwin := max(5, int(r.seconds))
	winLen := measure / time.Duration(nwin)
	window, stats := h.load(measure, nwin, nil)
	gc1, pause1 := gcTotals()
	_, hits1, misses1 := det.ExpCacheStats()
	all := stats

	attempted := 0
	for _, cs := range stats {
		attempted += cs.attempted
	}
	kind := opCheck
	if batch {
		kind = opBatch
	}
	const tailQ = 0.90
	ws := windowStats(stats, winLen, kind, tailQ, batch)
	var rates, p50s, tails []float64
	for _, w := range ws {
		rates, p50s, tails = append(rates, w.rate), append(p50s, w.p50), append(tails, w.tail)
	}
	r.e2e["rate_per_s"], r.e2e["p50_ms"], r.e2e["tail_ms"] = median(rates), median(p50s), median(tails)
	r.note("%s: %d requests in %.3f s, medians over %d windows: rate %.6g/s (min %.6g, max %.6g), p50 %.4f ms, p%.0f %.4f ms (max %.4f)",
		r.workload, attempted, window.Seconds(), nwin, median(rates), minOf(rates), maxOf(rates), median(p50s), tailQ*100, median(tails), maxOf(tails))
	if !batch {
		var corr latHist
		for _, cs := range stats {
			for k := range cs.win {
				corr.merge(&cs.win[k].lat[opCorrect])
			}
		}
		r.layer["serve.correct_p50_ms"], r.layer["serve.correct_p90_ms"] = corr.quantile(0.5), corr.quantile(0.90)
		r.note("sensor-cold: %d corrections, p50 %.4f ms, p90 %.4f ms", corr.n, corr.quantile(0.5), corr.quantile(0.90))
	}
	hits, misses := hits1-hits0, misses1-misses0
	r.layer["core.expcache_hit_ratio"] = float64(hits) / float64(max(1, hits+misses))
	_, inUse := srv.pool.ExpCacheBudgetStats()
	r.layer["core.expcache_bytes"] = float64(inUse)

	if r.traced {
		tw, tstats := h.load(measure, nwin, &r.epoch)
		tops := 0
		for _, cs := range tstats {
			r.trace.merge(cs.log)
			tops += cs.attempted
		}
		r.layer["trace.overhead_pct"] = (float64(attempted)/window.Seconds()/(float64(tops)/tw.Seconds()) - 1) * 100
		all = append(all, tstats...)
		if err := r.replayTraining([]serve.DetectorSpec{r.served}); err != nil {
			return err
		}
		r.schedLayer([]sched.Stats{srv.pool.SchedStats()})
		r.layer["serve.decode_allocs"] = h.decodeAllocs()
		r.finishLayers(tops, gc1-gc0, pause1-pause0, r.sz.setupReps)
	}
	for _, cs := range all {
		r.attempted += cs.attempted
		r.failed += cs.failed
	}
	r.checkResponses(h, all, threshold)
	return r.restartServed(srv, id, checkBody(pool[0]))
}

// decodeAllocs measures allocations per strict decode of the workload's
// request bodies into the server's wire types.
func (h *hotRun) decodeAllocs() float64 {
	bodies := make([][]byte, len(h.ops))
	for i := range h.ops {
		bodies[i] = h.ops[i].body
	}
	return decodeAllocs(bodies, func(i int) any {
		switch h.ops[i].kind {
		case opBatch:
			return new(serve.BatchRequest)
		case opCorrect:
			return new(serve.CorrectRequest)
		}
		return new(serve.BatchItemJSON)
	})
}

// checkResponses runs the verdict and correction checks over every
// distinct request the clients sent: identical requests must have been
// answered identically, and the first answer to each is checked.
func (r *run) checkResponses(h *hotRun, stats []*clientStats, threshold float64) {
	firsts := make(map[int][]byte)
	mismatch := 0
	for _, cs := range stats {
		mismatch += cs.mismatch
		for i, b := range cs.firsts {
			if f, ok := firsts[i]; !ok {
				firsts[i] = b
			} else if string(f) != string(b) {
				mismatch++
			}
		}
	}
	var err error
	if mismatch > 0 {
		err = fmt.Errorf("%d responses differ from the first answer to the same request", mismatch)
	}
	r.check("identical requests get identical responses", err)

	idx := make([]int, 0, len(firsts))
	for i := range firsts {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var vs []verdict
	var cs []correction
	err = nil
	for _, i := range idx {
		o := &h.ops[i]
		switch o.kind {
		case opBatch:
			got, derr := decodeVerdicts(firsts[i], o.items)
			if derr != nil && err == nil {
				err = derr
			}
			vs = append(vs, got...)
		case opCheck:
			var v serve.CheckResponse
			if derr := json.Unmarshal(firsts[i], &v); derr != nil && err == nil {
				err = derr
			}
			vs = append(vs, verdict{s: v, in: o.items[0]})
		case opCorrect:
			var c serve.CorrectResponse
			if derr := json.Unmarshal(firsts[i], &c); derr != nil && err == nil {
				err = derr
			}
			cs = append(cs, correction{in: o.items[0], loc: c.Location.Point()})
		}
	}
	r.check("responses decode", err)
	r.checkVerdicts(r.paper, vs, threshold, r.served.Train.Trials)
	if len(cs) > 0 {
		r.check("corrections are likely and near the truth", checkCorrections(r.paper, cs[:min(len(cs), r.sz.correctCheck)]))
		r.note("checked %d of %d corrections against the reference likelihood", min(len(cs), r.sz.correctCheck), len(cs))
	}
}

// checkVerdicts runs the verdict checks: alarm ⇔ score > threshold on
// all, reference scores on a sample, the benign alarm share on distinct
// benign sensors and the displaced-claim alarm rate on distinct
// displaced claims.
func (r *run) checkVerdicts(d *refDeployment, vs []verdict, threshold float64, trainN int) {
	r.check("alarm iff score > threshold", checkAlarms(vs, threshold))
	sample := vs[:min(len(vs), r.sz.scoreSample)]
	r.check("served Diff scores match the Theorem-1 quadrature", checkScores(d, sample))
	// A displaced copy of a sensor keeps its id, so displaced claims are
	// told apart by (id, claim).
	type claimKey struct {
		id    int
		claim geom.Point
	}
	benign := make(map[int]bool)
	far := make(map[claimKey]bool)
	for _, v := range vs {
		if v.in.far {
			far[claimKey{v.in.id, v.in.claim}] = v.s.Alarm
		} else {
			benign[v.in.id] = v.s.Alarm
		}
	}
	count := func(m map[int]bool) (n int) {
		for _, a := range m {
			if a {
				n++
			}
		}
		return n
	}
	farAlarms := 0
	for _, a := range far {
		if a {
			farAlarms++
		}
	}
	r.check("benign alarm share near 1 − τ/100", checkBenignShare(count(benign), len(benign), r.served.Train.Percentile, trainN))
	r.check("displaced claims alarm", checkFarRate(farAlarms, len(far)))
	r.note("verdicts: %d distinct, %d re-scored, %d of %d benign sensors alarmed, %d of %d displaced claims alarmed",
		len(vs), len(sample), count(benign), len(benign), farAlarms, len(far))
}

// secondConfig is cold-start's second deployment: a coarser grid with a
// different spread and range, so a change that shares per-deployment
// state across detectors must keep deployments apart.
func secondConfig() deploy.Config {
	return deploy.Config{
		Field:     geom.NewRect(geom.Pt(0, 0), geom.Pt(900, 900)),
		GroupsX:   9,
		GroupsY:   9,
		GroupSize: 200,
		Sigma:     45,
		Range:     55,
		Layout:    deploy.LayoutGrid,
	}
}

// burstSpecs is cold-start's registration burst: distinct seeds, most on
// the paper deployment and every fifth on the second, metrics cycling
// diff / add-all / probability, epochs alternating 1 and 2.
func (r *run) burstSpecs() []serve.DetectorSpec {
	metrics := []string{"diff", "add-all", "probability"}
	specs := make([]serve.DetectorSpec, r.sz.burstSpecs)
	for i := range specs {
		dep := deploy.PaperConfig()
		if i%5 == 4 {
			dep = secondConfig()
		}
		specs[i] = serve.DetectorSpec{
			Deployment: dep,
			Metric:     metrics[i%3],
			Train: serve.TrainSpec{
				Trials: r.sz.burstTrials, Percentile: 99, KeepInField: true,
				Seed: r.seed*1000 + uint64(i) + 1, SimEpoch: 1 + i%2,
			},
		}
	}
	return specs
}

// coldRound is one cold-start round's measurements.
type coldRound struct {
	trialsPerS float64
	ready      []float64 // register→ready per detector, ms
	restart    float64   // s
}

// runColdStart runs whole rounds until the measuring time is spent: a
// fresh pool over a fresh store takes the registration burst, every
// resource is polled until ready and its snapshot saved, then a new
// pool over the same store adopts the snapshots and serves one check per
// detector.
func (r *run) runColdStart() error {
	specs := r.burstSpecs()
	second := newRefDeployment(secondConfig())
	refs := make([]*refDeployment, len(specs))
	probes := make([][]byte, len(specs))
	inputs := make([]sensor, len(specs))
	for i, spec := range specs {
		refs[i] = r.paper
		if spec.Deployment.Hash() == second.cfg.Hash() {
			refs[i] = second
		}
		s, err := benignSensors(r.rng, refs[i], 1)
		if err != nil {
			return err
		}
		inputs[i], probes[i] = s[0], checkBody(s[0])
	}
	srv, _, _, err := r.setupServed()
	if err != nil {
		return err
	}
	srv.release()

	measure := time.Duration(r.seconds * float64(time.Second))
	if r.traced {
		measure /= 2
	}
	var rounds, traced []coldRound
	var schedStats []sched.Stats
	gc0, pause0 := gcTotals()
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < measure {
		cr, err := r.coldRound(specs, refs, inputs, probes, nil)
		if err != nil {
			return err
		}
		rounds = append(rounds, cr)
	}
	untracedWall := time.Since(start)
	gc1, pause1 := gcTotals()
	if r.traced {
		tstart := time.Now()
		for len(traced) == 0 || time.Since(tstart) < measure {
			cr, err := r.coldRound(specs, refs, inputs, probes, &schedStats)
			if err != nil {
				return err
			}
			traced = append(traced, cr)
		}
		perRound := func(d time.Duration, n int) float64 { return d.Seconds() / float64(n) }
		r.layer["trace.overhead_pct"] = (perRound(time.Since(tstart), len(traced))/perRound(untracedWall, len(rounds)) - 1) * 100
	}

	var rates, restarts, ready []float64
	for _, cr := range rounds {
		rates = append(rates, cr.trialsPerS)
		restarts = append(restarts, cr.restart)
		ready = append(ready, cr.ready...)
	}
	r.e2e["rate_per_s"] = median(rates)
	r.e2e["p50_ms"] = median(ready)
	r.e2e["tail_ms"] = quantile(ready, 0.90)
	r.e2e["restart_s"] = median(restarts)
	r.note("cold-start: %d rounds of %d registrations × %d trials; trials/s median %.0f (min %.0f, max %.0f); ready p50 %.1f ms, p90 %.1f ms over %d; restart median %.4f s",
		len(rounds), len(specs), r.sz.burstTrials, median(rates), minOf(rates), maxOf(rates),
		r.e2e["p50_ms"], r.e2e["tail_ms"], len(ready), median(restarts))
	if r.traced {
		if err := r.replayTraining(specs); err != nil {
			return err
		}
		r.schedLayer(schedStats)
		r.layer["serve.decode_allocs"] = decodeAllocs(probes, func(int) any { return new(serve.BatchItemJSON) })
		ops := len(traced) * len(specs)
		r.finishLayers(ops, gc1-gc0, pause1-pause0, (len(rounds)+len(traced))*len(specs)+r.sz.setupReps)
	}
	return nil
}

// coldRound runs one round and checks it: every detector trains to a
// threshold inside its snapshot's order statistics, its verdict checks
// out, and after the restart it is adopted without training and answers
// bit-identically. Traced rounds also replay the restart path and
// collect the burst pool's scheduler statistics.
func (r *run) coldRound(specs []serve.DetectorSpec, refs []*refDeployment, inputs []sensor, probes [][]byte, schedStats *[]sched.Stats) (coldRound, error) {
	var cr coldRound
	st, err := r.area.fresh()
	if err != nil {
		return cr, err
	}
	s, err := newServer(r.served, st)
	if err != nil {
		return cr, err
	}
	c := newConn(s.h)
	ids := make([]string, len(specs))
	regAt := make([]time.Time, len(specs))
	trials := 0
	for i, spec := range specs {
		regAt[i] = time.Now()
		r.attempted++
		if ids[i], err = c.register(spec); err != nil {
			r.failed++
			return cr, err
		}
		trials += spec.Train.Trials
	}
	ready, err := c.waitReady(ids, r.deadline)
	if err != nil {
		return cr, err
	}
	last := regAt[0]
	for i, id := range ids {
		if ready[id].After(last) {
			last = ready[id]
		}
		cr.ready = append(cr.ready, float64(ready[id].Sub(regAt[i]).Nanoseconds())/1e6)
	}
	cr.trialsPerS = float64(trials) / last.Sub(regAt[0]).Seconds()
	if err := s.drainSaves(uint64(len(specs)), r.deadline); err != nil {
		return cr, err
	}
	if schedStats != nil {
		*schedStats = append(*schedStats, s.pool.SchedStats())
	}

	var thErr, vErr error
	before := make([][]byte, len(ids))
	for i, id := range ids {
		dj, err := c.status(id)
		if err != nil {
			return cr, err
		}
		snap, err := s.snapshot(id)
		if err == nil {
			err = checkThreshold(snap, *dj.Threshold)
		}
		if err != nil && thErr == nil {
			thErr = fmt.Errorf("%s (%s, epoch %d): %w", id, specs[i].Metric, specs[i].Train.SimEpoch, err)
		}
		r.attempted++
		status, body := c.do("POST", "/v2/detectors/"+id+"/check", probes[i])
		if status != http.StatusOK {
			r.failed++
			return cr, fmt.Errorf("check on %s: status %d: %s", id, status, body)
		}
		before[i] = append([]byte(nil), body...)
		var v serve.CheckResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return cr, err
		}
		err = checkAlarms([]verdict{{s: v, in: inputs[i]}}, *dj.Threshold)
		if err == nil && specs[i].Metric == "diff" {
			err = checkScores(refs[i], []verdict{{s: v, in: inputs[i]}})
		}
		if err != nil && vErr == nil {
			vErr = fmt.Errorf("%s: %w", id, err)
		}
	}
	r.check("burst thresholds within their snapshots' order statistics", thErr)
	r.check("burst verdicts: alarm iff score > threshold, Diff scores match the quadrature", vErr)

	rs, err := restart(r.area, r.served, st, ids, probes)
	if err != nil {
		return cr, err
	}
	r.attempted += len(ids)
	cr.restart = rs.took.Seconds()
	r.check("restart adopts every detector without training, verdicts bit-identical", checkRestart(rs, len(ids), before))
	if schedStats != nil {
		r.replayRestart(rs, ids, probes, true)
		var hits, misses uint64
		for _, id := range ids {
			if det, _, ok := rs.srv.pool.Detector(id); ok {
				_, h, m := det.ExpCacheStats()
				hits, misses = hits+h, misses+m
			}
		}
		r.layer["core.expcache_hit_ratio"] = float64(hits) / float64(max(1, hits+misses))
		_, inUse := rs.srv.pool.ExpCacheBudgetStats()
		r.layer["core.expcache_bytes"] = float64(inUse)
	}
	rs.srv.release()
	s.release()
	return cr, nil
}
