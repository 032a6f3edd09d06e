package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Tracing records in-memory spans around the benchmark's own calls into
// each layer's public functions (name, start, end, parent) and sums
// their durations per name. Spans are written out when the run ends.
// Only a traced run (--trace 1) records; end-to-end metrics come from
// untraced measurement.

type span struct {
	id, parent int32
	name       string
	start, end int64 // ns since the log's epoch
}

// maxSpans caps the spans one log keeps for writing out; sums keep
// counting past it.
const maxSpans = 100_000

// spanLog is one goroutine's span recorder. Not safe for concurrent
// use; each client owns one and the run merges them.
type spanLog struct {
	epoch time.Time
	next  int32
	spans []span
	sums  map[string]*agg
}

// agg is a running total of one span name's durations.
type agg struct {
	n     int
	nanos int64
}

func newSpanLog(epoch time.Time, idBase int32) *spanLog {
	return &spanLog{epoch: epoch, next: idBase, sums: make(map[string]*agg)}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// id reserves a span id, so children can name a parent that ends later.
func (l *spanLog) id() int32 {
	l.next++
	return l.next
}

// record closes span id (parent −1 for a root) that started at start.
func (l *spanLog) record(id, parent int32, name string, start int64) int64 {
	end := l.now()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{id: id, parent: parent, name: name, start: start, end: end})
	}
	a := l.sums[name]
	if a == nil {
		a = &agg{}
		l.sums[name] = a
	}
	a.n++
	a.nanos += end - start
	return end
}

// count adds n units of work done under name (observations scored,
// trials run) without a span.
func (l *spanLog) count(name string, n int) {
	a := l.sums[name]
	if a == nil {
		a = &agg{}
		l.sums[name] = a
	}
	a.n += n
}

// child times f as a span under parent.
func (l *spanLog) child(parent int32, name string, f func()) {
	t := l.now()
	f()
	l.record(l.id(), parent, name, t)
}

// merge folds o's spans and sums into l.
func (l *spanLog) merge(o *spanLog) {
	room := maxSpans - len(l.spans)
	l.spans = append(l.spans, o.spans[:min(room, len(o.spans))]...)
	for name, a := range o.sums {
		b := l.sums[name]
		if b == nil {
			b = &agg{}
			l.sums[name] = b
		}
		b.n += a.n
		b.nanos += a.nanos
	}
}

// meanNanos is the mean duration of name's spans, 0 when none ran.
func (l *spanLog) meanNanos(name string) float64 {
	a := l.sums[name]
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.nanos) / float64(a.n)
}

func (l *spanLog) total(name string) (n int, nanos int64) {
	if a := l.sums[name]; a != nil {
		return a.n, a.nanos
	}
	return 0, 0
}

// write saves the spans as tab-separated id, parent, name, start_ns,
// end_ns lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range l.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
