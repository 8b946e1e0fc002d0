package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mirror/internal/engine"
	"mirror/internal/harness"
	"mirror/internal/server"
	"mirror/internal/wire"
	"mirror/internal/workload"
)

// kvWorkload is a wire-KV workload: closed-loop connections, each keeping
// up to depth frames in flight, against an in-process mirrord built by
// server.New with file-backed media and every other setting at its
// shipped default, so the benchmark always measures the defaults.
type kvWorkload struct {
	mix   workload.Mix
	depth int
}

var (
	// kvUpdatePipelined is YCSB-A at depth 8: the durable write path,
	// where group commit, the detect bracket and drain fences do most of
	// the work.
	kvUpdatePipelined = kvWorkload{mix: workload.YCSBA, depth: 8}
	// kvReadSync is YCSB-B at depth 1: reads share the worker, and its
	// group-commit window, with writes.
	kvReadSync = kvWorkload{mix: workload.YCSBB, depth: 1}
)

const (
	// kvKeyRange keys, prefilled to half: the working set fits in L2.
	kvKeyRange = 4096
	// kvConns connections from one process, one per CPU of the
	// reference host.
	kvConns = 2
	// kvSetups is how many times a run builds the system; setup_s is
	// their median.
	kvSetups = 21
	// kvRestartsPerWindow is how many times a run restarts a spare
	// server, a second set-up left idle, after each measured window;
	// recovery_s is their median. Spreading the restarts over the run
	// keeps a short slow spell of the host from moving them all, and
	// restarting a spare leaves the measured server undisturbed. Restarts
	// that fault in fresh pages for the new devices are not counted: the
	// kvRestartWarmup before the first window, and the first after each
	// window, since the runtime returns idle pages to the OS meanwhile.
	kvRestartsPerWindow = 5
	kvRestartWarmup     = 8
	kvMaxDepth          = 8
	kvWarmup            = time.Second
	// verifyTimeout bounds the post-restart check of every key; a frame
	// still unanswered then is a stuck operation.
	verifyTimeout = 30 * time.Second

	// The traced run spans about one request in traceEvery and logs up
	// to logFrames frames per client for the codec and exec replays.
	traceEvery = 16
	traceSpans = 1 << 17
	logFrames  = 1 << 17
)

// noLimit lets a phase run until its deadline.
const noLimit = math.MaxUint64

// kvPending is one submitted, unanswered frame.
type kvPending struct {
	req   wire.Request
	want  bool // the result the presence model predicts
	start int64
	rid   uint64 // request id in the trace
	span  int32  // the frame's span, -1 when not traced
}

// kvConn is one closed-loop client connection. It owns the keys k with
// (k-1) mod conns == id and keeps their exact presence model; no other
// connection touches them, so every response is predictable. Its per-op
// path does not allocate (see TestKVClientAllocFree), so allocation
// counted during a window is the server's.
//
// It frames requests with the wire package directly rather than through
// server.Client, whose Submit allocates a slice per completed frame.
type kvConn struct {
	id    uint32
	conns uint64
	nc    net.Conn
	rd    *bufio.Reader
	wr    *bufio.Writer
	depth int
	mix   workload.Mix
	keyOf workload.KeyFn
	rng   uint64
	seq   uint64

	present  [kvKeyRange + 1]bool
	inflight [kvMaxDepth]kvPending
	head, n  int
	issued   uint64
	wbuf     [64]byte
	rbuf     [wire.MaxFrame]byte

	// Window counters, reset by resetWindow.
	ops         uint64
	read, write harness.Hist
	// checked counts every response and bad those that failed a check;
	// the run collects and zeroes them after each phase.
	checked, bad uint64

	tr  *tracer
	log *frameLog
}

func newKVConn(id uint32, conns int, w kvWorkload, seed int64) *kvConn {
	return &kvConn{
		id:    id,
		conns: uint64(conns),
		depth: w.depth,
		mix:   w.mix,
		keyOf: workload.Spec{KeyRange: kvKeyRange, Dist: workload.DistZipfian}.KeyGen(),
		rng:   uint64(seed)*0x9e3779b97f4a7c15 + uint64(id) + 1,
	}
}

// dial connects to addr and negotiates the pipeline window.
func (c *kvConn) dial(addr string) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	c.nc = nc
	c.rd = bufio.NewReader(nc)
	c.wr = bufio.NewWriter(nc)
	c.head, c.n = 0, 0
	b := wire.AppendRequest(c.wbuf[:0], wire.Request{Op: wire.OpHello, Client: c.id, Val: uint64(c.depth)})
	if _, err := c.wr.Write(b); err != nil {
		return err
	}
	if err := c.wr.Flush(); err != nil {
		return err
	}
	payload, err := c.readFrame()
	if err != nil {
		return err
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK || resp.Rval < uint64(c.depth) {
		return fmt.Errorf("HELLO for window %d granted %d", c.depth, resp.Rval)
	}
	return nil
}

// owned maps a drawn key in [1, kvKeyRange] to a key this connection owns.
func (c *kvConn) owned(k uint64) uint64 { return (k-1)/c.conns*c.conns + 1 + uint64(c.id) }

// draw picks the next operation from the mix over zipfian owned keys.
func (c *kvConn) draw() (wire.Op, uint64) {
	pm := int(splitmix(&c.rng) % 1000)
	key := c.owned(c.keyOf(splitmix(&c.rng)))
	switch {
	case pm < c.mix.ReadPM:
		return wire.OpGet, key
	case pm < c.mix.ReadPM+c.mix.InsertPM:
		return wire.OpInsert, key
	}
	return wire.OpDelete, key
}

// issue buffers one frame and predicts its result from the model. The
// frame reaches the socket at the next complete, as with server.Client.
func (c *kvConn) issue(op wire.Op, key uint64, now int64) {
	req := wire.Request{Op: op, Client: c.id, Key: key}
	var want bool
	switch op {
	case wire.OpGet:
		want = c.present[key]
	case wire.OpInsert:
		want = !c.present[key]
		c.present[key] = true
		req.Val = key
	case wire.OpDelete:
		want = c.present[key]
		c.present[key] = false
	}
	if op.Mutating() {
		c.seq++
		req.Seq = c.seq
	}
	c.issued++
	p := &c.inflight[(c.head+c.n)%kvMaxDepth]
	*p = kvPending{req: req, want: want, start: now, rid: uint64(c.id)<<48 | c.issued, span: -1}
	if c.tr.sampled(p.rid) {
		p.span = c.tr.open(spanFrame, -1, p.rid, now)
	}
	b := wire.AppendRequest(c.wbuf[:0], req)
	c.tr.add(spanWireEncode, p.span, p.rid, now, nanotime())
	c.wr.Write(b) // a write error sticks in the bufio.Writer; complete's Flush reports it
	c.n++
}

// readFrame reads one response frame's payload into the connection's
// own buffer.
func (c *kvConn) readFrame() ([]byte, error) {
	if _, err := io.ReadFull(c.rd, c.rbuf[:4]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(c.rbuf[:4])
	if n == 0 || n > wire.MaxFrame {
		return nil, fmt.Errorf("response frame length %d", n)
	}
	if _, err := io.ReadFull(c.rd, c.rbuf[:n]); err != nil {
		return nil, err
	}
	return c.rbuf[:n], nil
}

// complete sends any buffered frames and reads the oldest in-flight
// frame's response, checking it against the model.
func (c *kvConn) complete() error {
	if c.wr.Buffered() > 0 {
		if err := c.wr.Flush(); err != nil {
			return err
		}
	}
	payload, err := c.readFrame()
	if err != nil {
		return err
	}
	t0 := nanotime()
	resp, err := wire.DecodeResponse(payload)
	end := nanotime()
	p := &c.inflight[c.head]
	c.head = (c.head + 1) % kvMaxDepth
	c.n--
	c.tr.add(spanWireDecode, p.span, p.rid, t0, end)
	c.tr.close(p.span, end)
	c.checked++
	if err != nil || !p.check(resp) {
		c.bad++
	}
	lat := uint64(end - p.start)
	if p.req.Op == wire.OpGet {
		c.read.Record(lat)
	} else {
		c.write.Record(lat)
	}
	c.ops++
	c.log.add(p.req, resp)
	return nil
}

// check reports whether resp is the response the model predicts: StatusOK,
// the predicted result, and for a GET that finds its key, value == key.
func (p *kvPending) check(resp wire.Response) bool {
	if resp.Status != wire.StatusOK || resp.Result != p.want {
		return false
	}
	return p.req.Op != wire.OpGet || !p.want || resp.Rval == p.req.Key
}

// drive runs the closed loop until deadline or until maxOps frames have
// been issued, then waits for every in-flight frame.
func (c *kvConn) drive(deadline int64, maxOps uint64) error {
	first := c.issued
	for {
		now := nanotime()
		if now >= deadline || c.issued-first >= maxOps {
			break
		}
		if c.n == c.depth {
			if err := c.complete(); err != nil {
				return err
			}
			continue
		}
		op, key := c.draw()
		c.issue(op, key, now)
	}
	return c.drain()
}

// send issues op on every key in keys, keeping the window full.
func (c *kvConn) send(op wire.Op, keys []uint64) error {
	for _, k := range keys {
		if c.n == c.depth {
			if err := c.complete(); err != nil {
				return err
			}
		}
		c.issue(op, k, nanotime())
	}
	return c.drain()
}

func (c *kvConn) drain() error {
	for c.n > 0 {
		if err := c.complete(); err != nil {
			return err
		}
	}
	return nil
}

// lose accounts for a connection that failed mid-phase: every frame still
// in flight is a failed operation.
func (c *kvConn) lose() {
	c.checked += uint64(c.n)
	c.bad += uint64(c.n)
	c.n = 0
}

func (c *kvConn) resetWindow() {
	c.ops = 0
	c.read = harness.Hist{}
	c.write = harness.Hist{}
}

// kvSystem is one in-process mirrord and its client connections.
type kvSystem struct {
	cfg   server.Config
	srv   *server.Server
	conns []*kvConn
}

// start builds the server on fresh media in dir, connects nConns
// clients and prefills the keys each owns. res counts the prefill checks.
func (w kvWorkload) start(dir string, seed int64, nConns int, prefill []uint64, res *result) (*kvSystem, error) {
	s := &kvSystem{cfg: server.Config{MediaPath: filepath.Join(dir, "media")}}
	srv, err := server.New(s.cfg)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, err
	}
	for i := 0; i < nConns; i++ {
		c := newKVConn(uint32(i), nConns, w, seed)
		s.conns = append(s.conns, c)
		if err := c.dial(srv.Addr().String()); err != nil {
			s.close()
			return nil, err
		}
	}
	err = s.each(func(c *kvConn) error { return c.send(wire.OpInsert, c.ownedOf(prefill)) })
	res.collect(s.conns)
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// ownedOf filters keys to those this connection owns.
func (c *kvConn) ownedOf(keys []uint64) []uint64 {
	var out []uint64
	for _, k := range keys {
		if c.owned(k) == k {
			out = append(out, k)
		}
	}
	return out
}

// each runs fn on every connection concurrently. A connection whose fn
// fails has its in-flight frames counted as failed; the first error is
// returned once all are done.
func (s *kvSystem) each(fn func(*kvConn) error) error {
	errs := make([]error, len(s.conns))
	var wg sync.WaitGroup
	for i, c := range s.conns {
		wg.Add(1)
		go func(i int, c *kvConn) {
			defer wg.Done()
			if errs[i] = fn(c); errs[i] != nil {
				c.lose()
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *kvSystem) close() {
	for _, c := range s.conns {
		if c.nc != nil {
			c.nc.Close()
		}
	}
	s.srv.Close()
}

// kvWindow is one measured window, or the sum of several.
type kvWindow struct {
	ops         uint64
	secs        float64
	read, write harness.Hist
	stats       server.Stats // delta over the window
	eng         engine.Stats // delta over the window
	allocBytes  uint64
	gcs         uint32
}

// window runs every connection's closed loop for d (or maxOps frames per
// connection) and returns what it measured. A connection that fails has
// its lost frames counted as failed operations, and the error is returned.
func (s *kvSystem) window(d time.Duration, maxOps uint64) (kvWindow, error) {
	var w kvWindow
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st0, es0 := s.srv.Stats(), s.srv.Engine().Stats()
	for _, c := range s.conns {
		c.resetWindow()
	}
	start := nanotime()
	deadline := start + int64(d)
	err := s.each(func(c *kvConn) error { return c.drive(deadline, maxOps) })
	w.secs = float64(nanotime()-start) / 1e9
	st1, es1 := s.srv.Stats(), s.srv.Engine().Stats()
	runtime.ReadMemStats(&ms1)
	for _, c := range s.conns {
		w.ops += c.ops
		w.read.Merge(&c.read)
		w.write.Merge(&c.write)
	}
	w.stats = server.Stats{
		Ops: st1.Ops - st0.Ops, Mutations: st1.Mutations - st0.Mutations,
		Replays: st1.Replays - st0.Replays, Batches: st1.Batches - st0.Batches,
		Flushes: st1.Flushes - st0.Flushes, Fences: st1.Fences - st0.Fences,
	}
	w.eng = engineDelta(es0, es1)
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcs = ms1.NumGC - ms0.NumGC
	return w, err
}

// add folds o into w.
func (w *kvWindow) add(o *kvWindow) {
	w.ops += o.ops
	w.secs += o.secs
	w.read.Merge(&o.read)
	w.write.Merge(&o.write)
	w.stats.Ops += o.stats.Ops
	w.stats.Mutations += o.stats.Mutations
	w.stats.Replays += o.stats.Replays
	w.stats.Batches += o.stats.Batches
	w.stats.Flushes += o.stats.Flushes
	w.stats.Fences += o.stats.Fences
	w.eng = engineSum(w.eng, o.eng)
	w.allocBytes += o.allocBytes
	w.gcs += o.gcs
}

// measure runs the windows of one measured phase and returns their
// figures and their sum. After each window it calls between, if set.
func (s *kvSystem) measure(d time.Duration, res *result, between func() error) ([]figures, kvWindow, error) {
	n, sub := subWindows(d)
	var figs []figures
	var sum kvWindow
	for i := 0; i < n; i++ {
		w, err := s.window(sub, noLimit)
		res.collect(s.conns)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mirrorperf: connection failed: %v\n", err)
		}
		figs = append(figs, newFigures(w.ops, w.secs, &w.read, &w.write))
		sum.add(&w)
		if between != nil {
			if err := between(); err != nil {
				return nil, sum, err
			}
		}
	}
	return figs, sum, nil
}

// engineDelta is b - a for the engine counters the ledger reads.
func engineDelta(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		Helps: b.Helps - a.Helps, Retries: b.Retries - a.Retries,
		ElidedFlushes: b.ElidedFlushes - a.ElidedFlushes, ElidedFences: b.ElidedFences - a.ElidedFences,
		PiggybackedFences: b.PiggybackedFences - a.PiggybackedFences,
		DetectAnnounces:   b.DetectAnnounces - a.DetectAnnounces, DetectVerdicts: b.DetectVerdicts - a.DetectVerdicts,
	}
}

// engineSum is a + b for the same counters.
func engineSum(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		Helps: a.Helps + b.Helps, Retries: a.Retries + b.Retries,
		ElidedFlushes: a.ElidedFlushes + b.ElidedFlushes, ElidedFences: a.ElidedFences + b.ElidedFences,
		PiggybackedFences: a.PiggybackedFences + b.PiggybackedFences,
		DetectAnnounces:   a.DetectAnnounces + b.DetectAnnounces, DetectVerdicts: a.DetectVerdicts + b.DetectVerdicts,
	}
}

// liveKeys counts the keys the models say are present.
func (s *kvSystem) liveKeys() int {
	n := 0
	for _, c := range s.conns {
		for k := range c.present {
			if c.present[k] {
				n++
			}
		}
	}
	return n
}

// kvRestart is what one restart on the same media measured.
type kvRestart struct {
	recoverS, firstOpUs, totalS float64
	reclaimedWords              float64
}

// restart closes the server cleanly and builds a new one on the same
// media, which attaches and recovers; then it reconnects and times the
// first operation, a GET of key 1 by connection 0, which owns it.
func (s *kvSystem) restart(res *result) (kvRestart, error) {
	var r kvRestart
	wordsBefore, _ := s.srv.Engine().Footprint()
	s.close()
	runtime.GC() // collect the previous incarnation outside the timing
	t0 := nanotime()
	srv, err := server.New(s.cfg)
	if err != nil {
		return r, fmt.Errorf("restart: %w", err)
	}
	s.srv = srv
	if !srv.Attached() {
		return r, fmt.Errorf("restart did not attach to the media")
	}
	t1 := nanotime()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return r, err
	}
	for _, c := range s.conns {
		if err := c.dial(srv.Addr().String()); err != nil {
			return r, err
		}
	}
	c0 := s.conns[0]
	t2 := nanotime()
	c0.issue(wire.OpGet, 1, t2)
	if err := c0.complete(); err != nil {
		return r, err
	}
	t3 := nanotime()
	res.collect(s.conns)
	r.recoverS = float64(t1-t0) / 1e9
	r.firstOpUs = float64(t3-t2) / 1e3
	r.totalS = float64(t3-t0) / 1e9
	wordsAfter, _ := srv.Engine().Footprint()
	r.reclaimedWords = float64(int64(wordsBefore) - int64(wordsAfter))
	return r, nil
}

// verifyAll reads every key back and checks it against the models:
// durability of every acknowledged write. It returns the mismatches, the
// frames still unanswered after verifyTimeout, and the GETs per second.
func (s *kvSystem) verifyAll(res *result) (violations, stuck uint64, opsPerS float64) {
	all := make([]uint64, kvKeyRange)
	for i := range all {
		all[i] = uint64(i + 1)
	}
	unanswered := make([]uint64, len(s.conns))
	start := nanotime()
	err := s.each(func(c *kvConn) error {
		if err := c.nc.SetDeadline(time.Now().Add(verifyTimeout)); err != nil {
			return err
		}
		err := c.send(wire.OpGet, c.ownedOf(all))
		unanswered[c.id] = uint64(c.n)
		return err
	})
	opsPerS = ratio(kvKeyRange, float64(nanotime()-start)/1e9)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mirrorperf: post-restart check: %v\n", err)
	}
	for _, c := range s.conns {
		stuck += unanswered[c.id]
		violations += c.bad - unanswered[c.id]
	}
	res.collect(s.conns)
	return violations, stuck, opsPerS
}

// run is one kv workload run: kvSetups set-ups (the last one is measured,
// the one before it is the spare), a warm-up, the measured windows with
// restarts of the spare between them, a restart of the measured server on
// its own media and a check of every key. With -trace 1 the measured
// phase is split into an untraced and a traced half, followed by the
// codec and exec replays of the traced half's frames.
func (w kvWorkload) run(cfg runConfig) (*result, error) {
	dir, err := os.MkdirTemp("", "mirrorperf-kv-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := newResult()
	prefill := prefillKeys(cfg.seed, kvKeyRange)

	var setups []float64
	var sys, spare *kvSystem
	for i := 0; i < kvSetups; i++ {
		if spare != nil {
			spare.close()
		}
		spare = sys
		sub, err := os.MkdirTemp(dir, "setup-")
		if err != nil {
			return nil, err
		}
		runtime.GC() // collect the previous set-up's garbage outside the timing
		t0 := nanotime()
		sys, err = w.start(sub, cfg.seed, kvConns, prefill, res)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, float64(nanotime()-t0)/1e9)
	}
	defer sys.close()
	defer spare.close()
	m := res.metrics
	m["setup_s"] = median(setups)

	// The first second after set-up runs slower, and so do the first
	// restarts; neither is measured.
	if _, err := sys.window(kvWarmup, noLimit); err != nil {
		fmt.Fprintf(os.Stderr, "mirrorperf: connection failed: %v\n", err)
	}
	res.collect(sys.conns)
	for i := 0; i < kvRestartWarmup; i++ {
		if _, err := spare.restart(res); err != nil {
			return nil, err
		}
	}

	measured := cfg.seconds
	if cfg.trace {
		measured /= 2
	}
	var restarts []kvRestart
	figs, win, err := sys.measure(measured, res, func() error {
		for i := 0; i <= kvRestartsPerWindow; i++ {
			r, err := spare.restart(res)
			if err != nil {
				return err
			}
			if i > 0 {
				restarts = append(restarts, r)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	putMedians(m, figs)
	words, replicas := sys.srv.Engine().Footprint()
	m["bytes_per_key"] = ratio(float64(words)*float64(replicas)*8, float64(sys.liveKeys()))

	var tracedFigs []figures
	var tracers []*tracer
	var logs []*frameLog
	if cfg.trace {
		for _, c := range sys.conns {
			c.tr = newTracer(fmt.Sprintf("conn%d", c.id), traceSpans, traceEvery)
			c.log = newFrameLog(logFrames)
			tracers = append(tracers, c.tr)
			logs = append(logs, c.log)
		}
		if tracedFigs, _, err = sys.measure(measured, res, nil); err != nil {
			return nil, err
		}
		for _, c := range sys.conns {
			c.tr, c.log = nil, nil
		}
	}

	// The measured server restarts once more on its own media, and every
	// key it holds is read back: durability of every acknowledged write.
	after, err := sys.restart(res)
	if err != nil {
		return nil, err
	}
	violations, stuck, checkOpsPerS := sys.verifyAll(res)
	pick := func(f func(kvRestart) float64) float64 {
		var xs []float64
		for _, r := range restarts {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	m["recovery_s"] = pick(func(r kvRestart) float64 { return r.totalS })
	if !cfg.trace {
		return res, nil
	}

	frames := interleave(logs)
	enc, dec, bytesPerOp, err := codecCost(frames)
	if err != nil {
		return nil, err
	}
	batch := ratio(float64(win.stats.Ops), float64(win.stats.Batches))
	replayTr := newTracer("replay", traceSpans, traceEvery)
	tracers = append(tracers, replayTr)
	ex, err := replayExec(dir, prefill, frames, int(math.Round(batch)), replayTr)
	if err != nil {
		return nil, err
	}
	mutFrac := ratio(float64(win.stats.Mutations), float64(win.stats.Ops))

	var all harness.Hist
	all.Merge(&win.read)
	all.Merge(&win.write)
	p50 := float64(all.Percentile(50)) / 1e3
	codecUs := 2 * (enc + dec) / 1e3 // each frame pair is encoded and decoded on both ends
	detectUs := ex.detectNs * mutFrac / 1e3
	execUs := ex.execNs / 1e3
	drainUs := ex.drainNs / 1e3
	residue := p50 - codecUs - detectUs - execUs - drainUs
	recoverS := pick(func(r kvRestart) float64 { return r.recoverS })

	ops := float64(win.stats.Ops)
	writes := float64(win.stats.Mutations)
	m["wire.encode_ns"] = enc
	m["wire.decode_ns"] = dec
	m["wire.bytes_per_op"] = bytesPerOp
	m["server.ops_per_batch"] = batch
	m["server.replays"] = float64(win.stats.Replays)
	m["server.wait_us"] = residue
	m["server.alloc_bytes_per_op"] = ratio(float64(win.allocBytes), ops)
	m["server.gc_per_kop"] = ratio(float64(win.gcs)*1000, ops)
	m["engine.exec_ns"] = ex.execNs
	m["engine.detect_ns"] = ex.detectNs
	m["engine.drain_ns"] = ex.drainNs
	m["engine.fences_per_write"] = ratio(float64(win.stats.Fences), writes)
	m["engine.flushes_per_write"] = ratio(float64(win.stats.Flushes), writes)
	m["engine.elided_fences_per_op"] = ratio(float64(win.eng.ElidedFences), ops)
	m["engine.piggybacked_fences_per_op"] = ratio(float64(win.eng.PiggybackedFences), ops)
	m["structures.get_ns"] = ex.opNs[0]
	m["structures.insert_ns"] = ex.opNs[1]
	m["structures.delete_ns"] = ex.opNs[2]
	m["patomic.helps_per_op"] = ratio(float64(win.eng.Helps), ops)
	m["patomic.retries_per_op"] = ratio(float64(win.eng.Retries), ops)
	m["pmem.flushes_per_op"] = ratio(float64(win.stats.Flushes), ops)
	m["pmem.fences_per_op"] = ratio(float64(win.stats.Fences), ops)
	m["palloc.live_words"] = float64(words)
	m["palloc.reclaimed_words_at_recovery"] = after.reclaimedWords
	m["recovery.recover_s"] = recoverS
	m["recovery.first_op_us"] = pick(func(r kvRestart) float64 { return r.firstOpUs })
	m["recovery.keys_per_s"] = ratio(float64(spare.liveKeys()), recoverS)
	m["recovery.violations"] = float64(violations)
	m["recovery.stuck_ops"] = float64(stuck)
	m["recovery.check_ops_per_s"] = checkOpsPerS
	m["trace.overhead_pct"] = overheadPct(figs, tracedFigs)

	out := cfg.out
	fmt.Fprintf(out, "client RTT p50 %.2f us = codec %.2f + detect %.2f + exec %.2f + drain %.2f + queueing/window residue %.2f (server.wait_us: TCP, reader, worker queue, group-commit window)\n",
		p50, codecUs, detectUs, execUs, drainUs, residue)
	printSelfTimes(out, tracers)
	if err := writeSpans(cfg.tracePath, tracers); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans written to %s\n", cfg.tracePath)
	return res, nil
}

// collect moves the connections' check counts into the result.
func (r *result) collect(conns []*kvConn) {
	for _, c := range conns {
		r.attempted += c.checked
		r.failed += c.bad
		c.checked, c.bad = 0, 0
	}
}
