package proto

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// dirtyBuf returns an empty slice whose backing array is poisoned, so bytes
// left over from a previous use of a pooled buffer cannot masquerade as
// freshly encoded output.
func dirtyBuf(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 0xA5
	}
	return b[:0]
}

// dirtyMsgs returns a message slice with poisoned contents, standing in for
// a recycled decode target.
func dirtyMsgs(n int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = Message{
			Kind: Kind(0xEE), Flags: 0xEE, From: 0xEE, Worker: 0xEE,
			Key: ^uint64(0), OpID: ^uint64(0), Slot: ^uint64(0),
			Value:   bytes.Repeat([]byte{0xEE}, 8),
			Origins: []uint64{^uint64(0)},
		}
	}
	return msgs[:0]
}

func equalFullMessage(a, b Message) bool {
	if !equalMessage(a, b) {
		return false
	}
	if len(a.Origins) != len(b.Origins) {
		return false
	}
	for i := range a.Origins {
		if a.Origins[i] != b.Origins[i] {
			return false
		}
	}
	return true
}

func deepCopyMessages(msgs []Message) []Message {
	out := make([]Message, len(msgs))
	for i, m := range msgs {
		out[i] = m
		out[i].Value = append([]byte(nil), m.Value...)
		out[i].Origins = append([]uint64(nil), m.Origins...)
	}
	return out
}

// FuzzBatchRoundtrip pins the aliasing and retention contracts buffer pooling
// relies on: batches marshalled into reused, dirty buffers and decoded into
// reused, dirty message slices and origin arenas must round-trip exactly.
// The input bytes serve double duty — as a raw wire frame (decode→encode→
// decode must be stable for both the replica batch codec and the client batch
// codec) and as a PRNG seed generating structured batches with values and
// origins.
func FuzzBatchRoundtrip(f *testing.F) {
	// The 60-byte header: one value-less, origin-less message carrying an
	// epoch — the smallest frame the replica wire path emits.
	hdrOnly, err := MarshalBatch(nil, []Message{{Kind: KindESWrite, Epoch: 42}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hdrOnly)
	// A max-size client batch: MaxBatchOps ops with full payloads.
	ops := make([]BatchOp, MaxBatchOps)
	for i := range ops {
		ops[i] = BatchOp{
			Code: ClientOpCASStrong, Key: uint64(i), Delta: uint64(i) << 32,
			Expected: bytes.Repeat([]byte{byte(i)}, MaxValueLen),
			Value:    bytes.Repeat([]byte{byte(i + 1)}, MaxValueLen),
		}
	}
	cb := ClientBatch{Flags: 1, Sess: 7, Seq: 100, Acked: 99, Ops: ops}
	cbFrame, err := cb.AppendMarshal(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cbFrame)
	// A mixed batch with values and origins.
	rng := rand.New(rand.NewSource(9))
	var mixed []Message
	for i := 0; i < 5; i++ {
		m := randMessage(rng)
		m.Origins = make([]uint64, rng.Intn(MaxOrigins+1))
		for j := range m.Origins {
			m.Origins[j] = rng.Uint64()
		}
		mixed = append(mixed, m)
	}
	mixedFrame, err := MarshalBatch(nil, mixed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixedFrame)

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzWireBatch(t, data)
		fuzzClientBatch(t, data)
		fuzzStructuredBatch(t, data)
	})
}

// fuzzWireBatch treats data as a replica batch frame: if it decodes, the
// decode→encode→decode cycle through dirty reused buffers must be stable.
func fuzzWireBatch(t *testing.T, data []byte) {
	first, err := UnmarshalBatch(data)
	if err != nil {
		return // malformed input must only be rejected, never crash
	}
	want := deepCopyMessages(first)
	buf := dirtyBuf(MaxBatchBytes)
	buf, err = MarshalBatch(buf, want)
	if err != nil {
		t.Fatalf("re-marshal of decoded batch failed: %v", err)
	}
	msgs, arena, err := UnmarshalBatchInto(dirtyMsgs(4), []uint64{0xEE}[:0], buf)
	if err != nil {
		t.Fatalf("re-unmarshal failed: %v", err)
	}
	_ = arena
	if len(msgs) != len(want) {
		t.Fatalf("decoded %d msgs, want %d", len(msgs), len(want))
	}
	for i := range msgs {
		if !equalFullMessage(msgs[i], want[i]) {
			t.Fatalf("msg %d mismatch:\n got %+v\nwant %+v", i, msgs[i], want[i])
		}
	}
}

// fuzzClientBatch treats data as a client batch frame and checks the same
// decode→encode→decode stability for the DoBatch codec.
func fuzzClientBatch(t *testing.T, data []byte) {
	var first ClientBatch
	if first.Unmarshal(data) != nil {
		return
	}
	// Deep-copy: op payloads alias data.
	want := first
	want.Ops = make([]BatchOp, len(first.Ops))
	for i, op := range first.Ops {
		want.Ops[i] = op
		want.Ops[i].Expected = append([]byte(nil), op.Expected...)
		want.Ops[i].Value = append([]byte(nil), op.Value...)
	}
	frame, err := want.AppendMarshal(dirtyBuf(4096))
	if err != nil {
		t.Fatalf("re-marshal of decoded client batch failed: %v", err)
	}
	var got ClientBatch
	if err := got.Unmarshal(frame); err != nil {
		t.Fatalf("re-unmarshal failed: %v", err)
	}
	if got.Flags != want.Flags || got.Sess != want.Sess || got.Seq != want.Seq ||
		got.Acked != want.Acked || len(got.Ops) != len(want.Ops) {
		t.Fatalf("client batch header mismatch: got %+v want %+v", got, want)
	}
	for i := range got.Ops {
		g, w := got.Ops[i], want.Ops[i]
		if g.Code != w.Code || g.Key != w.Key || g.Delta != w.Delta ||
			!bytes.Equal(g.Expected, w.Expected) || !bytes.Equal(g.Value, w.Value) {
			t.Fatalf("op %d mismatch: got %+v want %+v", i, g, w)
		}
	}
}

// fuzzStructuredBatch derives a structured random batch from data and
// round-trips it twice through the same dirty buffer, message slice, and
// origin arena — the steady-state reuse pattern of the pooled wire path.
func fuzzStructuredBatch(t *testing.T, data []byte) {
	seed := int64(len(data))
	if len(data) >= 8 {
		seed = int64(binary.LittleEndian.Uint64(data))
	}
	rng := rand.New(rand.NewSource(seed))
	buf := dirtyBuf(MaxBatchBytes)
	msgs := dirtyMsgs(2)
	arena := []uint64{0xEE}[:0]
	for round := 0; round < 2; round++ {
		batch := make([]Message, 1+rng.Intn(8))
		for i := range batch {
			batch[i] = randMessage(rng)
			if rng.Intn(2) == 1 {
				batch[i].Origins = make([]uint64, 1+rng.Intn(MaxOrigins))
				for j := range batch[i].Origins {
					batch[i].Origins[j] = rng.Uint64()
				}
			}
		}
		var err error
		buf, err = MarshalBatch(buf[:0], batch)
		if err != nil {
			t.Fatalf("round %d: marshal: %v", round, err)
		}
		msgs, arena, err = UnmarshalBatchInto(msgs, arena, buf)
		if err != nil {
			t.Fatalf("round %d: unmarshal: %v", round, err)
		}
		if len(msgs) != len(batch) {
			t.Fatalf("round %d: decoded %d msgs, want %d", round, len(msgs), len(batch))
		}
		for i := range msgs {
			if !equalFullMessage(msgs[i], batch[i]) {
				t.Fatalf("round %d: msg %d mismatch:\n got %+v\nwant %+v", round, i, msgs[i], batch[i])
			}
		}
	}
}

// FuzzClientFrameTrain pins the client link's frame trains. The input bytes
// serve double duty: as a raw datagram of either direction, whose split
// must never panic and must always make progress (no empty frame, every
// byte accounted for); and as a PRNG seed generating trains of request,
// batch and reply frames, which must split back into exactly the frames
// that were packed, each decoding to what was encoded.
func FuzzClientFrameTrain(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	var reqTrain, repTrain []byte
	for i := 0; i < 4; i++ {
		reqTrain = appendFrame(f, reqTrain, randClientRequest(rng))
		reqTrain = appendFrame(f, reqTrain, randClientBatch(rng))
		repTrain = appendFrame(f, repTrain, randClientReply(rng))
	}
	f.Add(reqTrain)
	f.Add(repTrain)
	f.Add([]byte{})
	f.Add([]byte{ClientOpBatch, 0, 0xff, 0xff}) // count beyond MaxBatchOps

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frameLen := range []func([]byte) (int, error){RequestFrameLen, ReplyFrameLen} {
			for rest := data; len(rest) > 0; {
				frame, next, err := NextFrame(rest, frameLen)
				if err != nil {
					break
				}
				if len(frame) == 0 || len(frame)+len(next) != len(rest) {
					t.Fatalf("split %d bytes into %d + %d", len(rest), len(frame), len(next))
				}
				rest = next
			}
		}

		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		var reqs, reps [][]byte
		var train []byte
		for i := rng.Intn(8); i >= 0; i-- {
			var frame marshaler = randClientRequest(rng)
			if rng.Intn(3) == 0 {
				frame = randClientBatch(rng)
			}
			reqs = append(reqs, appendFrame(t, nil, frame))
			train = append(train, reqs[len(reqs)-1]...)
		}
		checkTrain(t, train, reqs, RequestFrameLen, func(frame []byte) error {
			if frame[0] == ClientOpBatch {
				var b ClientBatch
				return b.Unmarshal(frame)
			}
			var r ClientRequest
			return r.Unmarshal(frame)
		})
		train = nil
		for i := rng.Intn(8); i >= 0; i-- {
			reps = append(reps, appendFrame(t, nil, randClientReply(rng)))
			train = append(train, reps[len(reps)-1]...)
		}
		checkTrain(t, train, reps, ReplyFrameLen, func(frame []byte) error {
			var p ClientReply
			return p.Unmarshal(frame)
		})
	})
}

// checkTrain splits train and requires exactly the frames want, each of
// which must decode.
func checkTrain(t *testing.T, train []byte, want [][]byte, frameLen func([]byte) (int, error), decode func([]byte) error) {
	t.Helper()
	for i, w := range want {
		frame, rest, err := NextFrame(train, frameLen)
		if err != nil {
			t.Fatalf("frame %d of %d: %v", i, len(want), err)
		}
		if !bytes.Equal(frame, w) {
			t.Fatalf("frame %d split as %x, packed %x", i, frame, w)
		}
		if err := decode(frame); err != nil {
			t.Fatalf("frame %d does not decode: %v", i, err)
		}
		train = rest
	}
	if len(train) != 0 {
		t.Fatalf("%d bytes left over after %d frames", len(train), len(want))
	}
}

// marshaler is any client frame.
type marshaler interface {
	AppendMarshal([]byte) ([]byte, error)
}

func appendFrame(tb testing.TB, dst []byte, frame marshaler) []byte {
	tb.Helper()
	out, err := frame.AppendMarshal(dst)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

func randPayload(rng *rand.Rand) []byte {
	if rng.Intn(3) == 0 {
		return nil
	}
	b := make([]byte, rng.Intn(MaxValueLen+1))
	rng.Read(b)
	return b
}

var clientReqOps = []uint8{
	ClientOpRead, ClientOpWrite, ClientOpRelease, ClientOpAcquire, ClientOpFAA,
	ClientOpCASWeak, ClientOpCASStrong, ClientOpFlush, ClientOpOpen, ClientOpClose,
	ClientOpPing, ClientOpJoin, ClientOpRemove,
}

func randClientRequest(rng *rand.Rand) *ClientRequest {
	return &ClientRequest{
		Op: clientReqOps[rng.Intn(len(clientReqOps))], Flags: uint8(rng.Intn(256)),
		Sess: rng.Uint32(), Seq: rng.Uint64(), Acked: rng.Uint64(), Key: rng.Uint64(), Delta: rng.Uint64(),
		Expected: randPayload(rng), Value: randPayload(rng),
	}
}

func randClientBatch(rng *rand.Rand) *ClientBatch {
	b := &ClientBatch{Flags: uint8(rng.Intn(256)), Sess: rng.Uint32(), Seq: rng.Uint64(), Acked: rng.Uint64()}
	n := 1 + rng.Intn(4)
	if rng.Intn(8) == 0 {
		n = 1 + rng.Intn(MaxBatchOps)
	}
	for i := 0; i < n; i++ {
		b.Ops = append(b.Ops, BatchOp{
			Code: uint8(rng.Intn(int(ClientOpFlush) + 1)), Key: rng.Uint64(), Delta: rng.Uint64(),
			Expected: randPayload(rng), Value: randPayload(rng),
		})
	}
	return b
}

func randClientReply(rng *rand.Rand) *ClientReply {
	return &ClientReply{
		Status: uint8(rng.Intn(256)), Flags: uint8(rng.Intn(256)),
		Sess: rng.Uint32(), Seq: rng.Uint64(), Value: randPayload(rng),
	}
}
