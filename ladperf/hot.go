package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// The two check workloads: batch-hot (64-item batches over a claimed-
// location set that fits the expectation cache) and sensor-cold (single
// checks over a working set far beyond it, every fourth request a
// /correct). Both run closed-loop clients against one ready detector.

type opKind int

const (
	opBatch opKind = iota
	opCheck
	opCorrect
	numKinds
)

// op is one pre-encoded request and the inputs it carries.
type op struct {
	kind  opKind
	body  []byte
	items []sensor // the batch, or the one sensor of a check or correct
}

// clientStats is what one closed-loop client saw. Latencies go into
// fixed-size histograms per measuring window, so the benchmark's own
// memory does not grow with the program's throughput.
type clientStats struct {
	win       []window
	attempted int
	failed    int
	firsts    map[int][]byte // first response body per op index
	mismatch  int            // later responses that differ from the first
	end       time.Time
	log       *spanLog // traced runs only
}

// window accumulates the requests that completed in one measuring
// window: observations scored, requests answered, latency by kind.
type window struct {
	obs, reqs int
	lat       [numKinds]latHist
}

// hotRun is one check workload against a served detector.
type hotRun struct {
	r    *run
	srv  *server
	id   string
	ops  []op
	path [numKinds]string
}

func newHotRun(r *run, srv *server, id string, ops []op) *hotRun {
	base := "/v2/detectors/" + id
	return &hotRun{r: r, srv: srv, id: id, ops: ops, path: [numKinds]string{
		opBatch: base + "/check/batch", opCheck: base + "/check", opCorrect: base + "/correct",
	}}
}

// warm sends ops[:n] once from one client, untimed, so the measured
// window starts with caches in their steady state.
func (h *hotRun) warm(n int) error {
	c := newConn(h.srv.h)
	for i := 0; i < n && i < len(h.ops); i++ {
		o := &h.ops[i]
		if status, body := c.do("POST", h.path[o.kind], o.body); status != http.StatusOK {
			return fmt.Errorf("warm-up request %d: status %d: %s", i, status, body)
		}
	}
	return nil
}

// load runs the clients closed-loop for d, split into nwin measuring
// windows. Client c starts at op
// c·len/clients and walks the ops cyclically; each sends its next
// request only after the previous answered. With epoch set, clients
// also replay each request's stages through the layers' public calls
// and record spans.
func (h *hotRun) load(d time.Duration, nwin int, epoch *time.Time) (time.Duration, []*clientStats) {
	n := h.r.sz.clients
	stats := make([]*clientStats, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		cs := &clientStats{firsts: make(map[int][]byte), win: make([]window, nwin)}
		if epoch != nil {
			cs.log = newSpanLog(*epoch, int32(c)<<24)
		}
		stats[c] = cs
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h.client(cs, c*len(h.ops)/n, start, d/time.Duration(nwin))
		}(c)
	}
	wg.Wait()
	end := start
	for _, cs := range stats {
		if cs.end.After(end) {
			end = cs.end
		}
	}
	return end.Sub(start), stats
}

func (h *hotRun) client(cs *clientStats, next int, origin time.Time, winLen time.Duration) {
	c := newConn(h.srv.h)
	deadline := origin.Add(winLen * time.Duration(len(cs.win)))
	for time.Now().Before(deadline) {
		i := next % len(h.ops)
		next++
		o := &h.ops[i]
		var root int32
		var t0 int64
		if cs.log != nil {
			root, t0 = cs.log.id(), cs.log.now()
		}
		start := time.Now()
		status, body := c.do("POST", h.path[o.kind], o.body)
		end := time.Now()
		if cs.log != nil {
			cs.log.record(cs.log.id(), root, "serve.handler", t0)
		}
		cs.attempted++
		if status != http.StatusOK {
			cs.failed++
			continue
		}
		if k := int(end.Sub(origin) / winLen); k < len(cs.win) {
			w := &cs.win[k]
			w.reqs++
			if o.kind != opCorrect {
				w.obs += len(o.items)
			}
			w.lat[o.kind].add(end.Sub(start))
		}
		if first, ok := cs.firsts[i]; !ok {
			cs.firsts[i] = bytes.Clone(body)
		} else if !bytes.Equal(first, body) {
			cs.mismatch++
		}
		if cs.log != nil {
			replayRequest(cs.log, root, h.srv.pool, h.id, o.kind, o.body)
			cs.log.record(root, -1, "op", t0)
		}
	}
	cs.end = time.Now()
}

// windowStat is one measuring window's rate and latency quantiles.
type windowStat struct{ rate, p50, tail float64 }

// windowStats merges the clients' windows and returns each window's rate
// (observations/s with obs set, requests/s otherwise) and the median and
// tailQ-quantile latency (ms) of its requests of kind. Medians over
// windows keep a transient stall of the machine from moving a whole
// run's figures.
func windowStats(stats []*clientStats, winLen time.Duration, kind opKind, tailQ float64, obs bool) []windowStat {
	out := make([]windowStat, len(stats[0].win))
	for k := range out {
		var work int
		var lat latHist
		for _, cs := range stats {
			w := &cs.win[k]
			if obs {
				work += w.obs
			} else {
				work += w.reqs
			}
			lat.merge(&w.lat[kind])
		}
		out[k] = windowStat{rate: float64(work) / winLen.Seconds(), p50: lat.quantile(0.5), tail: lat.quantile(tailQ)}
	}
	return out
}

// latHist is a log-bucketed latency histogram: bucket i holds latencies
// in [histMin·histGrowth^i, histMin·histGrowth^(i+1)), so a quantile is
// within 0.5% of the sample's.
type latHist struct {
	counts []uint32
	n      int
}

const (
	histMin     = 100 * time.Nanosecond
	histGrowth  = 1.005
	histBuckets = 4000 // up to ~46 s
)

var logHistGrowth = math.Log(histGrowth)

func (h *latHist) add(d time.Duration) {
	if h.counts == nil {
		h.counts = make([]uint32, histBuckets)
	}
	i := 0
	if d > histMin {
		i = min(int(math.Log(float64(d)/float64(histMin))/logHistGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint32, histBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in milliseconds, NaN when empty,
// interpolated geometrically by rank inside its bucket.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := max(q*float64(h.n), 0.5)
	seen := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			frac := (rank - seen) / float64(c)
			return float64(histMin) * math.Pow(histGrowth, float64(i)+frac) / 1e6
		}
		seen += float64(c)
	}
	return math.NaN()
}

// replayRequest re-runs one request's stages through each layer's public
// call, each under its own span: strict decode into the wire type,
// resource resolution, scoring (or correction), and response encoding.
// Single checks score through Detector.Check, which builds the
// expectation a cache miss builds; CheckPooled here would hit the entry
// the handler just admitted.
func replayRequest(l *spanLog, root int32, pool *serve.DetectorPool, id string, kind opKind, body []byte) {
	var det *core.Detector
	switch kind {
	case opBatch:
		var req serve.BatchRequest
		l.child(root, "serve.decode", func() { _ = decodeStrict(body, &req) })
		l.child(root, "serve.resolve", func() { det, _, _ = pool.Detector(id) })
		items := make([]core.BatchItem, len(req.Items))
		for i, it := range req.Items {
			items[i] = core.BatchItem{Observation: it.Observation, Location: it.Location.Point()}
		}
		var vs []core.Verdict
		l.child(root, "core.score", func() { vs = det.CheckBatch(items) })
		l.count("core.score_obs", len(items))
		l.child(root, "deploy.expectation", func() { core.NewExpectation(det.Model(), items[0].Location) })
		resp := serve.BatchResponse{Results: make([]serve.CheckResponse, len(vs))}
		for i, v := range vs {
			resp.Results[i] = serve.CheckResponse{Score: v.Score, Threshold: v.Threshold, Alarm: v.Alarm}
		}
		l.child(root, "serve.encode", func() { encodeJSON(resp) })
	case opCheck:
		var req serve.BatchItemJSON
		l.child(root, "serve.decode", func() { _ = decodeStrict(body, &req) })
		l.child(root, "serve.resolve", func() { det, _, _ = pool.Detector(id) })
		var v core.Verdict
		l.child(root, "core.score", func() { v = det.Check(req.Observation, req.Location.Point()) })
		l.count("core.score_obs", 1)
		l.child(root, "deploy.expectation", func() { core.NewExpectation(det.Model(), req.Location.Point()) })
		l.child(root, "serve.encode", func() {
			encodeJSON(serve.CheckResponse{Score: v.Score, Threshold: v.Threshold, Alarm: v.Alarm})
		})
	case opCorrect:
		var req serve.CorrectRequest
		l.child(root, "serve.decode", func() { _ = decodeStrict(body, &req) })
		var corr *core.Corrector
		l.child(root, "serve.resolve", func() { corr, _ = pool.Corrector(id) })
		var resp serve.CorrectResponse
		l.child(root, "localize.correct", func() {
			p, _ := corr.Correct(req.Observation)
			resp.Location = serve.PointJSON{X: p.X, Y: p.Y}
		})
		l.child(root, "serve.encode", func() { encodeJSON(resp) })
	}
}

// decodeStrict decodes the way the server does: one JSON value, unknown
// fields rejected.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func encodeJSON(v any) []byte {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(v) // the wire types always encode
	return b.Bytes()
}

// decodeAllocs measures heap allocations per strict decode of bodies
// into fresh values from newDst. It runs on one goroutine while the
// program is idle.
func decodeAllocs(bodies [][]byte, newDst func(int) any) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, b := range bodies {
		_ = decodeStrict(b, newDst(i)) // the bodies were decoded by the server already
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(bodies))
}

// batchHotOps builds the batch-hot request set: bodies of sz.batch items
// drawn from a pool of benign sensors whose claims all fit the
// expectation cache; farPerBatch items of each batch claim another pool
// sensor's location at least farDistance from their truth.
func batchHotOps(rng *rand.Rand, pool []sensor, sz sizes) []op {
	ops := make([]op, sz.hotBodies)
	for b := range ops {
		items := make([]sensor, sz.batch)
		for i := range items {
			s := pool[rng.IntN(len(pool))]
			if i < sz.farPerBatch {
				s = displace(rng, s, pool)
			}
			items[i] = s
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		ops[b] = op{kind: opBatch, body: batchBody(items), items: items}
	}
	return ops
}

// sensorColdOps builds the sensor-cold request sequence: every sensor of
// the pool once, in seeded order; every fourth request corrects the
// sensor's observation, every coldFarEvery-th check claims a displaced
// location.
func sensorColdOps(rng *rand.Rand, pool []sensor, sz sizes) []op {
	ops := make([]op, len(pool))
	for j, k := range rng.Perm(len(pool)) {
		s := pool[k]
		switch {
		case j%sz.correctEvery == sz.correctEvery-1:
			ops[j] = op{kind: opCorrect, body: correctBody(s), items: []sensor{s}}
		case j%sz.coldFarEvery == 0:
			s = displace(rng, s, pool)
			fallthrough
		default:
			ops[j] = op{kind: opCheck, body: checkBody(s), items: []sensor{s}}
		}
	}
	return ops
}
