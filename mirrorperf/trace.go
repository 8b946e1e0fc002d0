package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// epoch anchors nanotime; it is set once at start-up and only read after.
var epoch = time.Now()

// nanotime is a monotonic clock in nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }

// spanName identifies what a span wraps: one of the benchmark's own calls
// into a layer.
type spanName uint8

const (
	// spanFrame is a kv frame's client round trip, submit to response.
	// Its self time is what the client cannot see into: TCP, the server's
	// reader, worker queue, group-commit window, exec and drain.
	spanFrame spanName = iota
	spanWireEncode
	spanWireDecode
	// spanReplayFrame is one frame replayed through the server's exec
	// path without TCP; its children are the engine and structure calls.
	spanReplayFrame
	spanEngineDetect
	spanEngineDrain
	spanStructGet
	spanStructInsert
	spanStructDelete
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.frame", "wire.encode", "wire.decode", "replay.frame",
	"engine.detect", "engine.drain",
	"structures.get", "structures.insert", "structures.delete",
}

var spanLayers = [numSpanNames]string{
	"client", "wire", "wire", "replay", "engine", "engine",
	"structures", "structures", "structures",
}

// span is one timed call. parent indexes the same tracer's spans (-1 for
// a root); spans of one request share req.
type span struct {
	start, end int64
	req        uint64
	parent     int32
	name       spanName
}

// tracer keeps one goroutine's spans in memory. It traces about one
// request in every, so its fixed buffer spreads over the whole traced
// phase; once the buffer is full it records nothing more. A nil tracer records
// nothing, which is how the untraced run runs the same code.
type tracer struct {
	label string
	spans []span
	every uint64
}

func newTracer(label string, capacity int, every uint64) *tracer {
	return &tracer{label: label, spans: make([]span, 0, capacity), every: every}
}

// sampled reports whether request req gets spans. The choice hashes req,
// so it cannot alias with work a layer does every n-th operation.
func (t *tracer) sampled(req uint64) bool {
	return t != nil && len(t.spans) < cap(t.spans) && splitmix(&req)%t.every == 0
}

// open starts a span and returns its index, or -1 if the buffer is full.
// The buffer never grows, so indexes stay valid.
func (t *tracer) open(name spanName, parent int32, req uint64, start int64) int32 {
	if len(t.spans) == cap(t.spans) {
		return -1
	}
	t.spans = append(t.spans, span{start: start, req: req, parent: parent, name: name})
	return int32(len(t.spans) - 1)
}

// close ends span i (a no-op for -1).
func (t *tracer) close(i int32, end int64) {
	if i >= 0 {
		t.spans[i].end = end
	}
}

// add records a finished child span under parent, if parent was recorded.
func (t *tracer) add(name spanName, parent int32, req uint64, start, end int64) {
	if parent >= 0 {
		t.close(t.open(name, parent, req, start), end)
	}
}

// selfStats is the self time of every span of one name: its duration
// minus the part its children cover.
type selfStats struct {
	count  uint64
	selfNs int64
}

// selfTimes aggregates self time per span name over every tracer.
func selfTimes(ts []*tracer) [numSpanNames]selfStats {
	var out [numSpanNames]selfStats
	for _, t := range ts {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			out[s.name].count++
			out[s.name].selfNs += s.end - s.start - child[i]
		}
	}
	return out
}

// meanNs is the mean self time of one span name, in ns.
func meanNs(st [numSpanNames]selfStats, n spanName) float64 {
	return ratio(float64(st[n].selfNs), float64(st[n].count))
}

// printSelfTimes prints the self time per layer.
func printSelfTimes(w io.Writer, ts []*tracer) {
	st := selfTimes(ts)
	type row struct {
		layer  string
		count  uint64
		selfNs int64
	}
	byLayer := map[string]*row{}
	for n := spanName(0); n < numSpanNames; n++ {
		r := byLayer[spanLayers[n]]
		if r == nil {
			r = &row{layer: spanLayers[n]}
			byLayer[r.layer] = r
		}
		r.count += st[n].count
		r.selfNs += st[n].selfNs
	}
	var rows []*row
	for _, r := range byLayer {
		if r.count > 0 {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].selfNs > rows[j].selfNs })
	fmt.Fprintf(w, "self time per layer (sampled spans):\n")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %9d spans %12.3f ms self %10.0f ns/span\n",
			r.layer, r.count, float64(r.selfNs)/1e6, ratio(float64(r.selfNs), float64(r.count)))
	}
}

// writeSpans writes every tracer's spans to path as tab-separated rows.
func writeSpans(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "tracer\tspan\tname\tparent\treq\tstart_ns\tend_ns\n")
	for _, t := range ts {
		for i, s := range t.spans {
			fmt.Fprintf(bw, "%s\t%d\t%s\t%d\t%d\t%d\t%d\n",
				t.label, i, spanNames[s.name], s.parent, s.req, s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
