package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// The program is driven in-process: requests go straight to
// serve.Server.Handler().ServeHTTP, with no sockets, so the numbers are
// the server's and the client's CPU only.

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

// conn is one client's handle on a server. It is not safe for
// concurrent use; each client goroutine owns one.
type conn struct {
	h http.Handler
	w respWriter
}

func newConn(h http.Handler) *conn { return &conn{h: h, w: respWriter{hdr: make(http.Header)}} }

// do sends one request and returns the status and the response body,
// which stays valid until the next call.
func (c *conn) do(method, path string, body []byte) (int, []byte) {
	clear(c.w.hdr)
	c.w.status = 0
	c.w.body.Reset()
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, path, rd)
	if err != nil {
		panic(err) // paths are built by the benchmark
	}
	c.h.ServeHTTP(&c.w, req)
	return c.w.status, c.w.body.Bytes()
}

// server is one program instance: a serve.Server and its pool over a
// timed store, built the way cmd/ladd builds them.
type server struct {
	srv  *serve.Server
	pool *serve.DetectorPool
	h    http.Handler
	st   *timedStore
}

func newServer(def serve.DetectorSpec, st *timedStore) (*server, error) {
	srv, err := serve.NewServer(serve.ServerConfig{Default: def}, nil)
	if err != nil {
		return nil, err
	}
	srv.Pool().SetStore(st)
	return &server{srv: srv, pool: srv.Pool(), h: srv.Handler(), st: st}, nil
}

// register posts a registration and returns the resource id.
func (c *conn) register(spec serve.DetectorSpec) (string, error) {
	status, body := c.do("POST", "/v2/detectors", registerBody(spec))
	if status != http.StatusCreated && status != http.StatusOK {
		return "", fmt.Errorf("register: status %d: %s", status, body)
	}
	var dj serve.DetectorJSON
	if err := json.Unmarshal(body, &dj); err != nil {
		return "", fmt.Errorf("register: %w", err)
	}
	return dj.ID, nil
}

// status reads a detector resource.
func (c *conn) status(id string) (serve.DetectorJSON, error) {
	status, body := c.do("GET", "/v2/detectors/"+id, nil)
	var dj serve.DetectorJSON
	if status != http.StatusOK {
		return dj, fmt.Errorf("get %s: status %d: %s", id, status, body)
	}
	err := json.Unmarshal(body, &dj)
	return dj, err
}

// pollInterval is how often waitReady reads pending resources; it is the
// resolution of register→ready times.
const pollInterval = 10 * time.Millisecond

// waitReady polls every id with GET until it is ready and returns when
// each became ready. A failed resource or the deadline is an error.
func (c *conn) waitReady(ids []string, deadline time.Time) (map[string]time.Time, error) {
	ready := make(map[string]time.Time, len(ids))
	for len(ready) < len(ids) {
		for _, id := range ids {
			if _, ok := ready[id]; ok {
				continue
			}
			dj, err := c.status(id)
			if err != nil {
				return nil, err
			}
			switch serve.DetectorState(dj.State) {
			case serve.StateReady:
				ready[id] = time.Now()
			case serve.StateFailed:
				return nil, fmt.Errorf("detector %s failed: %s", id, dj.Error)
			}
		}
		if len(ready) < len(ids) {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("%d of %d detectors not ready by the deadline", len(ids)-len(ready), len(ids))
			}
			time.Sleep(pollInterval)
		}
	}
	return ready, nil
}

// drainSaves waits until the pool has written n snapshots; saves run
// asynchronously after a detector turns ready.
func (s *server) drainSaves(n uint64, deadline time.Time) error {
	for {
		sc := s.pool.SnapshotCounters()
		if sc.SavesErr > 0 {
			return fmt.Errorf("%d snapshot saves failed", sc.SavesErr)
		}
		if sc.SavesOK >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d snapshot saves done by the deadline", sc.SavesOK, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// snapshot reads and decodes a detector's stored snapshot.
func (s *server) snapshot(id string) (*core.Snapshot, error) {
	data, err := s.st.fs.Get(id)
	if err != nil {
		return nil, err
	}
	return core.DecodeSnapshot(data)
}

// release evicts every resource of the pool so its memory can go. The
// pool has no Close: its scheduler's idle workers keep the last jobs
// they ran (and through them the detectors' models) reachable, so
// release also rebuilds the scheduler, which stops those workers.
// Nothing is training when it is called.
func (s *server) release() {
	for _, st := range s.pool.List() {
		s.pool.Delete(st.ID)
	}
	s.pool.SetTrainConcurrency(serve.DefaultTrainConcurrency)
}

// restarted is one restart: a new server over an existing store that
// adopted the stored snapshots and answered one check per detector.
type restarted struct {
	srv     *server
	took    time.Duration
	adopt   serve.AdoptStats
	first   []time.Duration // first check latency per detector
	bodies  [][]byte        // check responses, in ids order
	started uint64          // training jobs the new pool started
}

// restart builds a new server over st's directory, adopts its snapshots
// and serves checks[i] on ids[i]. took runs from constructing the
// server until the last check answered.
func restart(area *storeArea, def serve.DetectorSpec, st *timedStore, ids []string, checks [][]byte) (*restarted, error) {
	st2, err := area.reopen(st)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s, err := newServer(def, st2)
	if err != nil {
		return nil, err
	}
	adopt, err := s.pool.AdoptSnapshots()
	if err != nil {
		return nil, err
	}
	c := newConn(s.h)
	r := &restarted{srv: s, adopt: adopt}
	for i, id := range ids {
		t := time.Now()
		status, body := c.do("POST", "/v2/detectors/"+id+"/check", checks[i])
		r.first = append(r.first, time.Since(t))
		if status != http.StatusOK {
			return nil, fmt.Errorf("restart check on %s: status %d: %s", id, status, body)
		}
		r.bodies = append(r.bodies, bytes.Clone(body))
	}
	r.took = time.Since(start)
	r.started, _, _ = s.pool.JobStats()
	return r, nil
}
