package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"mirror"
	"mirror/internal/engine"
	"mirror/internal/wire"
	"mirror/internal/workload"
)

// benchmarkFile is the layout of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step: same names, same units, same order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a -workload of the program", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// fakeServer answers request frames the way mirrord would for keys whose
// presence it tracks, without allocating once its buffers have grown.
type fakeServer struct {
	present [kvKeyRange + 2]bool
	in, out []byte
	off     int
}

func (f *fakeServer) Write(p []byte) (int, error) {
	f.in = append(f.in, p...)
	for len(f.in) >= 4 {
		n := 4 + int(binary.LittleEndian.Uint32(f.in))
		if len(f.in) < n {
			break
		}
		req, err := wire.DecodeRequest(f.in[4:n])
		if err != nil {
			return 0, err
		}
		resp := wire.Response{Status: wire.StatusOK, Known: true}
		switch req.Op {
		case wire.OpGet:
			resp.Result, resp.Rval = f.present[req.Key], req.Key
		case wire.OpInsert:
			resp.Result = !f.present[req.Key]
			f.present[req.Key] = true
		case wire.OpDelete:
			resp.Result = f.present[req.Key]
			f.present[req.Key] = false
		}
		f.out = wire.AppendResponse(f.out, resp)
		f.in = f.in[:copy(f.in, f.in[n:])]
	}
	return len(p), nil
}

func (f *fakeServer) Read(p []byte) (int, error) {
	n := copy(p, f.out[f.off:])
	if f.off += n; f.off == len(f.out) {
		f.out, f.off = f.out[:0], 0
	}
	return n, nil
}

// TestKVClientAllocFree checks that the kv client's per-op path (draw,
// frame, check, record) allocates nothing, so the allocation a window
// counts is the server's.
func TestKVClientAllocFree(t *testing.T) {
	for _, w := range []kvWorkload{kvUpdatePipelined, kvReadSync} {
		f := &fakeServer{in: make([]byte, 0, 4096), out: make([]byte, 0, 4096)}
		c := newKVConn(0, 1, w, 1)
		c.rd, c.wr = bufio.NewReader(f), bufio.NewWriter(f)
		step := func() {
			op, key := c.draw()
			c.issue(op, key, nanotime())
			if c.n == c.depth {
				if err := c.complete(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 1000; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Errorf("depth %d: %v allocations per op", w.depth, allocs)
		}
		if err := c.drain(); err != nil {
			t.Fatal(err)
		}
		if c.bad != 0 || c.checked == 0 {
			t.Errorf("depth %d: %d of %d responses failed their check", w.depth, c.bad, c.checked)
		}
	}
}

// fakeSet is a set over an array, standing in for the skiplist so the
// allocation test sees only the worker.
type fakeSet struct{ present [libKeyRange + 1]bool }

func (s *fakeSet) Insert(_ *engine.Ctx, k, _ uint64) bool {
	was := s.present[k]
	s.present[k] = true
	return !was
}

func (s *fakeSet) Delete(_ *engine.Ctx, k uint64) bool {
	was := s.present[k]
	s.present[k] = false
	return was
}

func (s *fakeSet) Contains(_ *engine.Ctx, k uint64) bool { return s.present[k] }
func (s *fakeSet) Get(_ *engine.Ctx, k uint64) (uint64, bool) {
	return k, s.present[k]
}
func (s *fakeSet) Tracer() engine.Tracer { return nil }
func (s *fakeSet) Name() string          { return "fake" }

// TestLibWorkerAllocFree checks that the library worker's per-op path
// allocates nothing around the structure call.
func TestLibWorkerAllocFree(t *testing.T) {
	w := &libWorker{set: &fakeSet{}, rng: 1, present: make([]bool, libKeyRange+1)}
	for i := 0; i < 1000; i++ {
		w.step()
	}
	if allocs := testing.AllocsPerRun(5000, w.step); allocs != 0 {
		t.Errorf("%v allocations per op", allocs)
	}
	if w.bad != 0 {
		t.Errorf("%d of %d operations failed their check", w.bad, w.checked)
	}
}

// counts are the persistence counters a fixed-seed mini-run leaves.
type counts struct{ flushes, fences, announces, verdicts uint64 }

func kvMiniRun(t *testing.T) counts {
	t.Helper()
	res := newResult()
	w := kvWorkload{mix: workload.YCSBA, depth: 1}
	sys, err := w.start(t.TempDir(), 7, 1, prefillKeys(7, kvKeyRange), res)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	e := sys.srv.Engine()
	fl0, fe0 := e.Counters()
	st0 := e.Stats()
	win, err := sys.window(time.Minute, 3000)
	res.collect(sys.conns)
	if err != nil || res.failed != 0 || win.ops != 3000 {
		t.Fatalf("mini-run: err %v, %d failed, %d ops", err, res.failed, win.ops)
	}
	fl1, fe1 := e.Counters()
	st1 := e.Stats()
	return counts{fl1 - fl0, fe1 - fe0, st1.DetectAnnounces - st0.DetectAnnounces, st1.DetectVerdicts - st0.DetectVerdicts}
}

func libMiniRun(t *testing.T) counts {
	t.Helper()
	rt := mirror.New(mirror.Options{Latency: true, Words: 1 << 20})
	set := rt.NewSkipList(rt.NewCtx())
	w := &libWorker{set: set, c: rt.NewCtx(), rng: 7, present: make([]bool, libKeyRange+1)}
	for _, k := range prefillKeys(7, 1<<12) {
		set.Insert(w.c, k, k)
		w.present[k] = true
	}
	fl0, fe0 := rt.Counters()
	st0 := rt.Engine().Stats()
	for i := 0; i < 20000; i++ {
		w.step()
	}
	if w.bad != 0 {
		t.Fatalf("mini-run: %d of %d operations failed their check", w.bad, w.checked)
	}
	fl1, fe1 := rt.Counters()
	st1 := rt.Engine().Stats()
	return counts{fl1 - fl0, fe1 - fe0, st1.DetectAnnounces - st0.DetectAnnounces, st1.DetectVerdicts - st0.DetectVerdicts}
}

// TestCountsRepeatExactly pins the counters a later change may claim on:
// a one-connection depth-1 kv mini-run and a one-goroutine library
// mini-run, each run twice with the same seed, must leave identical
// flush, fence, announce and verdict counts.
func TestCountsRepeatExactly(t *testing.T) {
	if a, b := kvMiniRun(t), kvMiniRun(t); a != b {
		t.Errorf("kv mini-run counts differ: %+v then %+v", a, b)
	} else {
		t.Logf("kv mini-run: %+v", a)
	}
	if a, b := libMiniRun(t), libMiniRun(t); a != b {
		t.Errorf("library mini-run counts differ: %+v then %+v", a, b)
	} else {
		t.Logf("library mini-run: %+v", a)
	}
}

// TestRunPrintsEveryMetric runs each kv workload briefly in both modes and
// checks the result line: correct, and every metric present with its unit.
func TestRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range []string{"kv-update-pipelined", "kv-read-sync"} {
		for _, trace := range []string{"0", "1"} {
			var out, errs bytes.Buffer
			args := []string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--trace-dir", t.TempDir()}
			if code := run(args, &out, &errs); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", name, trace, code, errs.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace %s: last line: %v", name, trace, err)
			}
			specs := endToEnd
			if trace == "1" {
				specs = perLayer
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 || len(line.Metrics) != len(specs) {
				t.Errorf("%s trace %s: %+v", name, trace, line)
			}
			for _, s := range specs {
				if v, ok := line.Metrics[s.name]; !ok || v.Unit != s.unit {
					t.Errorf("%s trace %s: metric %s = %+v", name, trace, s.name, v)
				}
			}
		}
	}
}
