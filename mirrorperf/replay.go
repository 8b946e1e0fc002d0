package main

import (
	"encoding/binary"
	"fmt"
	"path/filepath"

	"mirror/internal/engine"
	"mirror/internal/server"
	"mirror/internal/structures/skiplist"
	"mirror/internal/wire"
)

// frame is one request and the response it got, as carried on the wire.
type frame struct {
	req  wire.Request
	resp wire.Response
}

// frameLog records the frames a traced run sent, up to its capacity, so
// the wire codec and the server's exec path can be timed on exactly that
// stream afterwards. A nil log records nothing.
type frameLog struct{ frames []frame }

func newFrameLog(capacity int) *frameLog { return &frameLog{frames: make([]frame, 0, capacity)} }

func (l *frameLog) add(req wire.Request, resp wire.Response) {
	if l != nil && len(l.frames) < cap(l.frames) {
		l.frames = append(l.frames, frame{req, resp})
	}
}

// interleave merges per-client logs round-robin, the order in which
// concurrent clients' frames reach a server.
func interleave(logs []*frameLog) []frame {
	var out []frame
	for i := 0; ; i++ {
		more := false
		for _, l := range logs {
			if i < len(l.frames) {
				out = append(out, l.frames[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// codecCost times the wire codec over frames: request and response
// encoding, and their decoding, per frame, plus the bytes a frame pair
// puts on the wire. The pass repeats until it has run for a while and
// the median pass is reported, so one scheduler hiccup does not show.
func codecCost(frames []frame) (encodeNs, decodeNs, bytesPerOp float64, err error) {
	if len(frames) == 0 {
		return 0, 0, 0, nil
	}
	var reqBuf, respBuf []byte
	var encs, decs []float64
	var sink uint64
	for pass, spent := 0, int64(0); pass < 5 || (pass < 200 && spent < 2e8); pass++ {
		t0 := nanotime()
		reqBuf = reqBuf[:0]
		respBuf = respBuf[:0]
		for i := range frames {
			reqBuf = wire.AppendRequest(reqBuf, frames[i].req)
			respBuf = wire.AppendResponse(respBuf, frames[i].resp)
		}
		t1 := nanotime()
		for p := reqBuf; len(p) > 0; {
			n, r, err := decodeOne(p, true)
			if err != nil {
				return 0, 0, 0, err
			}
			sink += r
			p = p[n:]
		}
		for p := respBuf; len(p) > 0; {
			n, r, err := decodeOne(p, false)
			if err != nil {
				return 0, 0, 0, err
			}
			sink += r
			p = p[n:]
		}
		t2 := nanotime()
		encs = append(encs, float64(t1-t0)/float64(len(frames)))
		decs = append(decs, float64(t2-t1)/float64(len(frames)))
		spent += t2 - t0
	}
	codecSink = sink
	return median(encs), median(decs), float64(len(reqBuf)+len(respBuf)) / float64(len(frames)), nil
}

// codecSink keeps the decoded words live, so no decode is optimised away.
var codecSink uint64

// decodeOne decodes the frame at the head of p and returns its length
// with the prefix, and a word of the decoded value.
func decodeOne(p []byte, request bool) (int, uint64, error) {
	if len(p) < 4 {
		return 0, 0, fmt.Errorf("truncated frame in codec replay")
	}
	n := 4 + int(binary.LittleEndian.Uint32(p))
	if request {
		r, err := wire.DecodeRequest(p[4:n])
		return n, r.Key, err
	}
	r, err := wire.DecodeResponse(p[4:n])
	return n, r.Rval, err
}

// execCost is the server's exec path replayed on a recorded stream.
type execCost struct {
	execNs   float64 // per frame: the skiplist operation
	detectNs float64 // per mutating frame: Detect + DetectBeginDeferred + DetectEndDeferred
	drainNs  float64 // per batch: one DetectDrain
	opNs     [3]float64
}

// opIndex maps a set op to its slot in execCost.opNs and its span name.
func opIndex(op wire.Op) int {
	switch op {
	case wire.OpInsert:
		return 1
	case wire.OpDelete:
		return 2
	}
	return 0
}

// replayExec replays frames through the server's exec path without TCP:
// for each mutating frame the descriptor check (engine.Detect), then
// engine.DetectBeginDeferred, the skiplist operation and
// engine.DetectEndDeferred, as the server's worker runs them, with one
// engine.DetectDrain per batch of frames. The engine comes from
// server.New with file-backed media and every other setting at its
// shipped default; prefill is inserted first. Sequence numbers restart at
// 1 per client on the fresh engine.
func replayExec(dir string, prefill []uint64, frames []frame, batch int, tr *tracer) (execCost, error) {
	var out execCost
	if batch < 1 {
		batch = 1
	}
	srv, err := server.New(server.Config{MediaPath: filepath.Join(dir, "replay-media")})
	if err != nil {
		return out, err
	}
	defer srv.Close()
	e := srv.Engine()
	c := e.NewCtx()
	// The served set is the skiplist at root field 0; NewAt adopts it.
	table := skiplist.NewAt(e, c, 0)
	for _, k := range prefill {
		table.Insert(c, k, k)
	}
	e.Drain(c)

	seqs := map[uint32]uint64{}
	var execNs, detectNs, drainNs int64
	var opNs [3]int64
	var opN [3]int64
	var mutations, drains int64
	pending := 0
	for i := range frames {
		r := frames[i].req
		idx := opIndex(r.Op)
		req := uint64(i)
		root := int32(-1)
		t0 := nanotime()
		if tr.sampled(req) {
			root = tr.open(spanReplayFrame, -1, req, t0)
		}
		var t1, t2, t3 int64
		if r.Op == wire.OpGet {
			t1 = t0
			table.Get(c, r.Key)
			t2 = nanotime()
			t3 = t2
		} else {
			seqs[r.Client]++
			seq := seqs[r.Client]
			client := int(r.Client)
			if d := e.Detect(client, seq); d.Verdict == engine.Committed {
				return out, fmt.Errorf("replay: fresh seq %d of client %d reads committed", seq, client)
			}
			var result bool
			if r.Op == wire.OpInsert {
				engine.DetectBeginDeferred(e, c, client, seq, engine.DetectInsert, r.Key, r.Val, true)
				t1 = nanotime()
				result = table.Insert(c, r.Key, r.Val)
			} else {
				engine.DetectBeginDeferred(e, c, client, seq, engine.DetectDelete, r.Key, 0, false)
				t1 = nanotime()
				result = table.Delete(c, r.Key)
			}
			t2 = nanotime()
			engine.DetectEndDeferred(e, c, result, 0)
			t3 = nanotime()
			detectNs += (t1 - t0) + (t3 - t2)
			mutations++
			tr.add(spanEngineDetect, root, req, t0, t1)
			tr.add(spanEngineDetect, root, req, t2, t3)
		}
		tr.add(spanStructGet+spanName(idx), root, req, t1, t2)
		execNs += t2 - t1
		opNs[idx] += t2 - t1
		opN[idx]++
		end := t3
		if pending++; pending == batch || i == len(frames)-1 {
			engine.DetectDrain(e, c)
			end = nanotime()
			drainNs += end - t3
			drains++
			pending = 0
			tr.add(spanEngineDrain, root, req, t3, end)
		}
		tr.close(root, end)
	}
	out.execNs = ratio(float64(execNs), float64(len(frames)))
	out.detectNs = ratio(float64(detectNs), float64(mutations))
	out.drainNs = ratio(float64(drainNs), float64(drains))
	for i := range opNs {
		out.opNs[i] = ratio(float64(opNs[i]), float64(opN[i]))
	}
	return out, nil
}
