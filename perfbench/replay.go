package main

import (
	"fmt"
	"math"
	"time"

	"kite"
	"kite/internal/kvs"
	"kite/internal/llc"
	"kite/internal/proto"
)

// The layers the benchmark can call directly are measured by replaying the
// workload's own generated inputs through them, single-threaded, after the
// traced window.

const replayOps = 1 << 18

// replayStream returns the first replayOps ops of the workload's sessions,
// round-robin, as the generators would send them for this seed.
func replayStream(w *workload, seed int64) []kite.Op {
	gens := make([]*opGen, numSessions)
	for i := range gens {
		gens[i] = newOpGen(w, seed, i)
	}
	ops := make([]kite.Op, replayOps)
	vals := make([]byte, replayOps*valueLen)
	for i := range ops {
		val := vals[i*valueLen : (i+1)*valueLen]
		gens[i%numSessions].next(&ops[i], val)
	}
	return ops
}

// replayKVS times kvs.Store.View for the stream's reads and acquires and
// Store.Apply for its writes and releases, on a store of the deployment's
// capacity prefilled like the deployment. It returns ns per call of each.
func replayKVS(ops []kite.Op) (viewNs, applyNs float64) {
	st := kvs.New(totalKeys)
	val := make([]byte, valueLen)
	for k := uint64(0); k < dataKeys; k++ {
		putValue(val, k, 1<<63|k)
		st.Apply(k, val, llc.Stamp{Ver: 1})
	}
	buf := make([]byte, kite.MaxValueLen)
	var views, applies int
	start := time.Now()
	for i := range ops {
		if c := ops[i].Code; c == kite.OpRead || c == kite.OpAcquire {
			st.View(ops[i].Key, buf)
			views++
		}
	}
	viewNs = perCall(time.Since(start), views)
	start = time.Now()
	for i := range ops {
		if c := ops[i].Code; c == kite.OpWrite || c == kite.OpRelease {
			st.Apply(ops[i].Key, ops[i].Value, llc.Stamp{Ver: uint64(2 + i)})
			applies++
		}
	}
	applyNs = perCall(time.Since(start), applies)
	return viewNs, applyNs
}

// replayProto marshals the stream's writes as ES write messages in batches
// of batch messages (the transport's measured msgs_per_batch) and decodes
// them again, returning ns per message each way and bytes per message.
func replayProto(ops []kite.Op, batch float64) (marshalNs, unmarshalNs, bytesPerMsg float64, err error) {
	n := max(1, int(math.Round(batch)))
	var msgs []proto.Message
	for i := range ops {
		if c := ops[i].Code; c == kite.OpWrite || c == kite.OpRelease {
			msgs = append(msgs, proto.Message{
				Kind: proto.KindESWrite, From: 1, Key: ops[i].Key, OpID: uint64(i),
				Stamp: llc.Stamp{Ver: uint64(i), MID: 1}, Value: ops[i].Value,
			})
		}
	}
	msgs = msgs[:len(msgs)/n*n]
	if len(msgs) == 0 {
		return 0, 0, 0, nil
	}
	// Encode every batch back to back into one buffer, then decode them
	// all, so each loop is timed once rather than per batch.
	size := 2 * len(msgs) / n
	for i := range msgs {
		size += msgs[i].MarshalledSize()
	}
	buf := make([]byte, 0, size)
	ends := make([]int, 0, len(msgs)/n)
	start := time.Now()
	for i := 0; i < len(msgs); i += n {
		// Each batch is marshalled into the buffer's free tail, so
		// MarshalBatch sees only its own bytes; buf is sized exactly, so
		// the append inside it never reallocates.
		b, err := proto.MarshalBatch(buf[len(buf):], msgs[i:i+n])
		if err != nil {
			return 0, 0, 0, fmt.Errorf("proto replay: marshal: %w", err)
		}
		buf = buf[:len(buf)+len(b)]
		ends = append(ends, len(buf))
	}
	enc := time.Since(start)
	var (
		out   []proto.Message
		arena []uint64
	)
	start = time.Now()
	from := 0
	for _, end := range ends {
		var err error
		if out, arena, err = proto.UnmarshalBatchInto(out, arena, buf[from:end]); err != nil {
			return 0, 0, 0, fmt.Errorf("proto replay: unmarshal: %w", err)
		}
		from = end
	}
	dec := time.Since(start)
	return perCall(enc, len(msgs)), perCall(dec, len(msgs)), float64(len(buf)) / float64(len(msgs)), nil
}

func perCall(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
