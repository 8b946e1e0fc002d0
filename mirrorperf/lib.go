package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mirror"
	"mirror/internal/engine"
	"mirror/internal/harness"
	"mirror/internal/pmem"
	"mirror/internal/structures/skiplist"
	"mirror/internal/verify"
	"mirror/internal/wire"
)

const (
	// libKeyRange keys, prefilled to half: about 131k live keys, some
	// 22 MiB across both replicas, well past L2.
	libKeyRange = 1 << 18
	// libWorkers goroutines, one per CPU of the reference host; each owns
	// the keys k with (k-1) mod libWorkers == its id.
	libWorkers = 2
	// libSetups is how many times a run builds the runtime; setup_s is
	// their median.
	libSetups = 3
	// libCheckPhase is the post-recovery check phase's budget.
	libCheckPhase = time.Second
	// libGrace is how long an operation may run past its phase's budget
	// before Freeze unwinds it and it counts as stuck.
	libGrace = 2 * time.Second
)

// libMix is 50% reads, 25% inserts, 25% deletes, in per-mille.
const libReadPM, libInsertPM = 500, 250

// libWorker is one goroutine of the library workload with the exact
// presence model of the keys it owns.
type libWorker struct {
	id      int
	set     mirror.Set
	c       *mirror.Ctx
	rng     uint64
	present []bool
	writes  uint64

	// curKey is the key of the operation in flight, 0 between
	// operations; after Freeze unwinds the worker it names the key whose
	// operation a crash cut.
	curKey atomic.Uint64

	ops, checked, bad uint64
	read, write       harness.Hist
	tr                *tracer
	// total counts every operation the worker ran; it numbers requests
	// in the trace.
	total uint64
}

func (w *libWorker) draw() (wire.Op, uint64) {
	pm := splitmix(&w.rng) % 1000
	key := splitmix(&w.rng)%(libKeyRange/libWorkers)*libWorkers + 1 + uint64(w.id)
	switch {
	case pm < libReadPM:
		return wire.OpGet, key
	case pm < libReadPM+libInsertPM:
		return wire.OpInsert, key
	}
	return wire.OpDelete, key
}

// step runs one operation and checks it against the model. Its path does
// not allocate (see TestLibWorkerAllocFree).
func (w *libWorker) step() {
	op, key := w.draw()
	w.curKey.Store(key)
	start := nanotime()
	var got bool
	var val uint64
	switch op {
	case wire.OpGet:
		val, got = w.set.Get(w.c, key)
	case wire.OpInsert:
		got = w.set.Insert(w.c, key, key)
	default:
		got = w.set.Delete(w.c, key)
	}
	end := nanotime()
	w.curKey.Store(0)

	want := w.present[key]
	if op == wire.OpGet {
		w.read.Record(uint64(end - start))
	} else {
		if op == wire.OpInsert {
			want = !want
		}
		w.present[key] = op == wire.OpInsert
		w.writes++
		w.write.Record(uint64(end - start))
	}
	w.checked++
	if got != want || (op == wire.OpGet && got && val != key) {
		w.bad++
	}
	w.ops++
	w.total++
	rid := uint64(w.id)<<48 | w.total
	if w.tr.sampled(rid) {
		w.tr.close(w.tr.open(spanStructGet+spanName(opIndex(op)), -1, rid, start), end)
	}
}

// loop runs steps until stop is set. It returns frozen when Freeze
// unwound an operation, and failed when an operation panicked otherwise
// (the structure is then not usable, and the panic counts as a failed
// operation rather than ending the run).
func (w *libWorker) loop(stop *atomic.Bool) (frozen, failed bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == pmem.ErrFrozen {
				frozen = true
				return
			}
			fmt.Fprintf(os.Stderr, "mirrorperf: worker %d: operation on key %d panicked: %v\n", w.id, w.curKey.Load(), r)
			failed = true
		}
	}()
	for !stop.Load() {
		w.step()
	}
	return false, false
}

// libPhase is one phase of the workers' loops.
type libPhase struct {
	ops         uint64
	secs        float64
	read, write harness.Hist
	stats       engine.Stats
	flushes     uint64
	fences      uint64
	writes      uint64
	allocBytes  uint64
	gcs         uint32
	// stuck counts operations still running libGrace after the phase's
	// budget; panicked counts operations that panicked.
	stuck, panicked uint64
}

// runLibPhase runs the workers for d. With crash it ends the phase by
// freezing the runtime mid-flight, the crash point; otherwise it stops the
// workers and freezes only if one is still in an operation libGrace later.
func runLibPhase(rt *mirror.Runtime, ws []*libWorker, d time.Duration, crash bool, res *result) libPhase {
	var p libPhase
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	es0 := rt.Engine().Stats()
	fl0, fe0 := rt.Counters()
	var writes0 uint64
	for _, w := range ws {
		w.ops = 0
		w.read, w.write = harness.Hist{}, harness.Hist{}
		writes0 += w.writes
	}
	var stop atomic.Bool
	frozen := make([]bool, len(ws))
	failed := make([]bool, len(ws))
	done := make(chan struct{})
	var wg sync.WaitGroup
	start := nanotime()
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *libWorker) {
			defer wg.Done()
			frozen[i], failed[i] = w.loop(&stop)
		}(i, w)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	budget := time.NewTimer(d)
	select {
	case <-budget.C:
	case <-done:
		// Every worker panicked before the budget ran out.
	}
	var end int64
	if crash {
		rt.Freeze()
		end = nanotime()
		<-done
	} else {
		stop.Store(true)
		end = nanotime()
		grace := time.NewTimer(libGrace)
		select {
		case <-done:
		case <-grace.C:
			rt.Freeze()
			<-done
			for i := range ws {
				if frozen[i] {
					p.stuck++
				}
			}
		}
		grace.Stop()
	}
	budget.Stop()
	p.secs = float64(end-start) / 1e9
	for i, w := range ws {
		p.ops += w.ops
		p.read.Merge(&w.read)
		p.write.Merge(&w.write)
		p.writes += w.writes
		if failed[i] {
			p.panicked++
		}
	}
	p.writes -= writes0
	p.stats = engineDelta(es0, rt.Engine().Stats())
	fl1, fe1 := rt.Counters()
	p.flushes, p.fences = fl1-fl0, fe1-fe0
	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = ms1.NumGC - ms0.NumGC
	res.collectLib(ws)
	res.attempted += p.stuck + p.panicked
	res.failed += p.stuck + p.panicked
	return p
}

// add folds the counters of o into p.
func (p *libPhase) add(o *libPhase) {
	p.ops += o.ops
	p.secs += o.secs
	p.writes += o.writes
	p.flushes += o.flushes
	p.fences += o.fences
	p.stats = engineSum(p.stats, o.stats)
	p.allocBytes += o.allocBytes
	p.gcs += o.gcs
	p.stuck += o.stuck
}

// collectLib moves the workers' check counts into the result.
func (r *result) collectLib(ws []*libWorker) {
	for _, w := range ws {
		r.attempted += w.checked
		r.failed += w.bad
		w.checked, w.bad = 0, 0
	}
}

// libSetup builds the runtime with the paper's NVMM latency model and
// prefills the skiplist, each worker inserting the keys it owns.
func libSetup(seed int64, prefill []uint64, res *result) (*mirror.Runtime, []*libWorker) {
	rt := mirror.New(mirror.Options{Latency: true})
	set := rt.NewSkipList(rt.NewCtx())
	ws := make([]*libWorker, libWorkers)
	var wg sync.WaitGroup
	for i := range ws {
		w := &libWorker{
			id: i, set: set, c: rt.NewCtx(),
			rng:     uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 1,
			present: make([]bool, libKeyRange+1),
		}
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range prefill {
				if int(k-1)%libWorkers != w.id {
					continue
				}
				w.checked++
				if !w.set.Insert(w.c, k, k) {
					w.bad++
				}
				w.present[k] = true
			}
		}()
	}
	wg.Wait()
	res.collectLib(ws)
	return rt, ws
}

// withinBudget runs fn on its own goroutine. If fn has not returned after
// d, it freezes rt so fn's operation unwinds, and reports false; a panic
// other than the freeze also reports false.
func withinBudget(rt *mirror.Runtime, d time.Duration, fn func()) bool {
	ok := make(chan bool, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if r != pmem.ErrFrozen {
					fmt.Fprintf(os.Stderr, "mirrorperf: post-recovery check panicked: %v\n", r)
				}
				ok <- false
			}
		}()
		fn()
		ok <- true
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case done := <-ok:
		return done
	case <-timer.C:
		rt.Freeze()
		return <-ok
	}
}

// ranger is the skiplist's in-order walk, used to read back every key.
type ranger interface {
	Range(c *mirror.Ctx, from, to uint64, fn func(key, val uint64) bool)
}

// runLib is the library workload: set-up, a timed op phase ended by Freeze
// mid-flight, Crash(CrashRandom, seed), Recover, an exact check of every
// key and an fsck of the skiplist, then a post-recovery check phase.
func runLib(cfg runConfig) (*result, error) {
	res := newResult()
	m := res.metrics
	prefill := prefillKeys(cfg.seed, libKeyRange)

	var setups []float64
	var rt *mirror.Runtime
	var ws []*libWorker
	for i := 0; i < libSetups; i++ {
		rt, ws = nil, nil
		runtime.GC() // let the previous runtime's devices go before timing the next
		t0 := nanotime()
		rt, ws = libSetup(cfg.seed, prefill, res)
		setups = append(setups, float64(nanotime()-t0)/1e9)
	}
	m["setup_s"] = median(setups)

	// The measured windows; with -trace 1 a traced half follows the
	// untraced one. The last window ends with the crash.
	measured := cfg.seconds
	if cfg.trace {
		measured /= 2
	}
	n, sub := subWindows(measured)
	var plain libPhase
	var figs, tracedFigs []figures
	var tracers []*tracer
	for i := 0; i < n; i++ {
		ph := runLibPhase(rt, ws, sub, !cfg.trace && i == n-1, res)
		figs = append(figs, newFigures(ph.ops, ph.secs, &ph.read, &ph.write))
		plain.add(&ph)
	}
	if cfg.trace {
		for _, w := range ws {
			w.tr = newTracer(fmt.Sprintf("worker%d", w.id), traceSpans, traceEvery)
			tracers = append(tracers, w.tr)
		}
		for i := 0; i < n; i++ {
			ph := runLibPhase(rt, ws, sub, i == n-1, res)
			tracedFigs = append(tracedFigs, newFigures(ph.ops, ph.secs, &ph.read, &ph.write))
		}
		for _, w := range ws {
			w.tr = nil
		}
	}
	putMedians(m, figs)
	before := rt.Report()
	live := 0
	for _, w := range ws {
		for _, p := range w.present {
			if p {
				live++
			}
		}
	}
	m["bytes_per_key"] = ratio(float64(before.LiveWords)*float64(before.Replicas)*8, float64(live))

	// Crash and recover. The operation each worker had in flight may have
	// taken effect or not; every other key must match its owner's model.
	cut := make([]uint64, len(ws))
	for i, w := range ws {
		cut[i] = w.curKey.Load()
	}
	rt.Crash(mirror.CrashRandom, cfg.seed)
	t0 := nanotime()
	rt.Recover()
	t1 := nanotime()
	var t2 int64
	var stuck, violations uint64
	c := rt.NewCtx()
	alive := withinBudget(rt, libGrace, func() {
		c0 := rt.NewCtx()
		ws[0].set.Get(c0, 1)
		t2 = nanotime()
	})
	if !alive {
		stuck++
		t2 = nanotime()
	}
	m["recovery_s"] = float64(t2-t0) / 1e9
	after := rt.Report()

	observed := make([]bool, libKeyRange+1)
	var fsck *verify.Report
	if alive {
		alive = withinBudget(rt, verifyTimeout, func() {
			ws[0].set.(ranger).Range(c, 1, libKeyRange, func(k, v uint64) bool {
				if k > libKeyRange || v != k {
					violations++
				} else {
					observed[k] = true
				}
				return true
			})
			fsck = verify.SkipList(rt.Engine(), c, 0, skiplist.MaxLevel)
		})
		if !alive {
			stuck++
		}
	}
	if alive {
		res.attempted += libKeyRange + 1 // every key, and the fsck
		if !fsck.Ok() {
			fmt.Fprintf(os.Stderr, "mirrorperf: post-recovery fsck: %v\n", fsck)
			violations++
		}
		for k := uint64(1); k <= libKeyRange; k++ {
			w := ws[int(k-1)%libWorkers]
			if cut[w.id] == k {
				w.present[k] = observed[k]
			} else if observed[k] != w.present[k] {
				violations++
			}
		}
	}
	res.failed += violations

	var check libPhase
	if alive {
		for _, w := range ws {
			w.c = rt.NewCtx()
		}
		check = runLibPhase(rt, ws, libCheckPhase, false, res)
	}
	res.attempted += stuck
	res.failed += stuck
	stuck += check.stuck
	fmt.Fprintf(cfg.out, "crash: %d keys live, recovery %.3f s, %d violations, %d stuck, check phase %.0f ops/s vs %.0f before the crash\n",
		live, float64(t2-t0)/1e9, violations, stuck, ratio(float64(check.ops), check.secs), m["ops_per_s"])
	if !cfg.trace {
		return res, nil
	}

	st := selfTimes(tracers)
	ops := float64(plain.ops)
	// The library path has no wire, no server and no detect bracket, so
	// their figures are zero here; allocation is the library path's own.
	for _, name := range []string{"wire.encode_ns", "wire.decode_ns", "wire.bytes_per_op",
		"server.ops_per_batch", "server.replays", "server.wait_us",
		"engine.exec_ns", "engine.detect_ns", "engine.drain_ns"} {
		m[name] = 0
	}
	m["server.alloc_bytes_per_op"] = ratio(float64(plain.allocBytes), ops)
	m["server.gc_per_kop"] = ratio(float64(plain.gcs)*1000, ops)
	m["engine.fences_per_write"] = ratio(float64(plain.fences), float64(plain.writes))
	m["engine.flushes_per_write"] = ratio(float64(plain.flushes), float64(plain.writes))
	m["engine.elided_fences_per_op"] = ratio(float64(plain.stats.ElidedFences), ops)
	m["engine.piggybacked_fences_per_op"] = ratio(float64(plain.stats.PiggybackedFences), ops)
	m["structures.get_ns"] = meanNs(st, spanStructGet)
	m["structures.insert_ns"] = meanNs(st, spanStructInsert)
	m["structures.delete_ns"] = meanNs(st, spanStructDelete)
	m["patomic.helps_per_op"] = ratio(float64(plain.stats.Helps), ops)
	m["patomic.retries_per_op"] = ratio(float64(plain.stats.Retries), ops)
	m["pmem.flushes_per_op"] = ratio(float64(plain.flushes), ops)
	m["pmem.fences_per_op"] = ratio(float64(plain.fences), ops)
	m["palloc.live_words"] = float64(before.LiveWords)
	m["palloc.reclaimed_words_at_recovery"] = float64(int64(before.LiveWords) - int64(after.LiveWords))
	m["recovery.recover_s"] = float64(t1-t0) / 1e9
	m["recovery.first_op_us"] = float64(t2-t1) / 1e3
	m["recovery.keys_per_s"] = ratio(float64(live), float64(t1-t0)/1e9)
	m["recovery.violations"] = float64(violations)
	m["recovery.stuck_ops"] = float64(stuck)
	m["recovery.check_ops_per_s"] = ratio(float64(check.ops), check.secs)
	m["trace.overhead_pct"] = overheadPct(figs, tracedFigs)

	printSelfTimes(cfg.out, tracers)
	if err := writeSpans(cfg.tracePath, tracers); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "spans written to %s\n", cfg.tracePath)
	return res, nil
}

// prefillKeys is a seeded half of [1, n]: the keys present after set-up.
func prefillKeys(seed int64, n int) []uint64 {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	keys := make([]uint64, n/2)
	for i := range keys {
		keys[i] = uint64(perm[i] + 1)
	}
	return keys
}

// splitmix advances and hashes a PRNG state.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
