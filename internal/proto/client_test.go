package proto

import (
	"bytes"
	"encoding/hex"
	"testing"
)

func TestClientRequestRoundTrip(t *testing.T) {
	in := ClientRequest{
		Op: ClientOpCASStrong, Sess: 0xdeadbeef, Seq: 42, Acked: 40,
		Key: 0x1122334455667788, Delta: 7,
		Expected: []byte("old-value"), Value: []byte("new-value"),
	}
	buf, err := in.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out ClientRequest
	if err := out.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Sess != in.Sess || out.Seq != in.Seq ||
		out.Acked != in.Acked || out.Key != in.Key || out.Delta != in.Delta {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if !bytes.Equal(out.Expected, in.Expected) || !bytes.Equal(out.Value, in.Value) {
		t.Fatalf("payload mismatch: %q/%q", out.Expected, out.Value)
	}
}

func TestClientRequestEmptyPayloads(t *testing.T) {
	in := ClientRequest{Op: ClientOpRead, Sess: 1, Seq: 1, Key: 9}
	buf, err := in.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != clientReqHeaderLen {
		t.Fatalf("empty request is %d bytes, want %d", len(buf), clientReqHeaderLen)
	}
	var out ClientRequest
	if err := out.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if out.Expected != nil || out.Value != nil {
		t.Fatalf("expected nil payloads, got %q/%q", out.Expected, out.Value)
	}
}

func TestClientRequestErrors(t *testing.T) {
	big := make([]byte, MaxValueLen+1)
	if _, err := (&ClientRequest{Op: ClientOpWrite, Value: big}).AppendMarshal(nil); err != ErrValueTooLong {
		t.Fatalf("oversize value: %v", err)
	}
	var r ClientRequest
	if err := r.Unmarshal(make([]byte, clientReqHeaderLen-1)); err != ErrShortBuffer {
		t.Fatalf("short buffer: %v", err)
	}
	// Truncated payload: header promises a value the buffer lacks.
	buf, _ := (&ClientRequest{Op: ClientOpWrite, Value: []byte("xyz")}).AppendMarshal(nil)
	if err := r.Unmarshal(buf[:len(buf)-1]); err != ErrShortBuffer {
		t.Fatalf("truncated payload: %v", err)
	}
	// Bad op code.
	buf2, _ := (&ClientRequest{Op: 0x7f}).AppendMarshal(nil)
	if err := r.Unmarshal(buf2); err == nil {
		t.Fatal("bad op accepted")
	}
}

func TestClientReplyRoundTrip(t *testing.T) {
	in := ClientReply{
		Status: ClientOK, Flags: ClientFlagSwapped,
		Sess: 77, Seq: 123456789, Value: []byte("previous"),
	}
	buf, err := in.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out ClientReply
	if err := out.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if out.Status != in.Status || out.Flags != in.Flags || out.Sess != in.Sess || out.Seq != in.Seq {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if !bytes.Equal(out.Value, in.Value) {
		t.Fatalf("value mismatch: %q", out.Value)
	}
}

func TestClientReplyErrors(t *testing.T) {
	big := make([]byte, MaxValueLen+1)
	if _, err := (&ClientReply{Value: big}).AppendMarshal(nil); err != ErrValueTooLong {
		t.Fatalf("oversize value: %v", err)
	}
	var p ClientReply
	if err := p.Unmarshal([]byte{1, 2}); err != ErrShortBuffer {
		t.Fatalf("short buffer: %v", err)
	}
}

func TestClientBatchRoundTrip(t *testing.T) {
	in := ClientBatch{
		Flags: 1, Sess: 99, Seq: 1000, Acked: 990,
		Ops: []BatchOp{
			{Code: ClientOpWrite, Key: 1, Value: []byte("a")},
			{Code: ClientOpFAA, Key: 2, Delta: 5},
			{Code: ClientOpCASWeak, Key: 3, Expected: []byte("old"), Value: []byte("new")},
			{Code: ClientOpRead, Key: 4},
		},
	}
	buf, err := in.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The defining property of the batch frame: several ops, ONE datagram.
	if len(in.Ops) < 2 {
		t.Fatal("test must batch at least 2 ops")
	}
	var out ClientBatch
	if err := out.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if out.Flags != in.Flags || out.Sess != in.Sess || out.Seq != in.Seq || out.Acked != in.Acked {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if len(out.Ops) != len(in.Ops) {
		t.Fatalf("op count %d, want %d", len(out.Ops), len(in.Ops))
	}
	for i := range in.Ops {
		a, b := out.Ops[i], in.Ops[i]
		if a.Code != b.Code || a.Key != b.Key || a.Delta != b.Delta ||
			!bytes.Equal(a.Expected, b.Expected) || !bytes.Equal(a.Value, b.Value) {
			t.Fatalf("op %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestClientBatchErrors(t *testing.T) {
	var b ClientBatch
	// Empty and oversized batches are rejected at marshal time.
	if _, err := (&ClientBatch{}).AppendMarshal(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	tooMany := ClientBatch{Ops: make([]BatchOp, MaxBatchOps+1)}
	if _, err := tooMany.AppendMarshal(nil); err == nil {
		t.Fatal("oversized batch accepted")
	}
	// Control ops cannot ride in a batch.
	ctrl := ClientBatch{Ops: []BatchOp{{Code: ClientOpOpen}}}
	if _, err := ctrl.AppendMarshal(nil); err == nil {
		t.Fatal("control op batched")
	}
	// Oversized payload.
	big := ClientBatch{Ops: []BatchOp{{Code: ClientOpWrite, Value: make([]byte, MaxValueLen+1)}}}
	if _, err := big.AppendMarshal(nil); err != ErrValueTooLong {
		t.Fatalf("oversize value: %v", err)
	}
	// Truncated frames.
	if err := b.Unmarshal(make([]byte, clientBatchHeaderLen-1)); err != ErrShortBuffer {
		t.Fatalf("short header: %v", err)
	}
	buf, _ := (&ClientBatch{Ops: []BatchOp{{Code: ClientOpWrite, Value: []byte("xyz")}}}).AppendMarshal(nil)
	if err := b.Unmarshal(buf[:len(buf)-1]); err != ErrShortBuffer {
		t.Fatalf("truncated payload: %v", err)
	}
	// A non-batch frame is rejected.
	req, _ := (&ClientRequest{Op: ClientOpRead, Sess: 1, Seq: 1}).AppendMarshal(nil)
	if err := b.Unmarshal(req); err == nil {
		t.Fatal("non-batch frame accepted")
	}
}

func TestClientBatchWireLen(t *testing.T) {
	in := ClientBatch{
		Sess: 1, Seq: 1,
		Ops: []BatchOp{
			{Code: ClientOpWrite, Key: 1, Value: []byte("abc")},
			{Code: ClientOpCASStrong, Key: 2, Expected: []byte("x"), Value: []byte("yz")},
		},
	}
	buf, err := in.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := BatchOverhead
	for _, op := range in.Ops {
		want += op.WireLen()
	}
	if len(buf) != want {
		t.Fatalf("frame is %d bytes, WireLen sums to %d", len(buf), want)
	}
}

func TestClientOpNames(t *testing.T) {
	if ClientOpName(ClientOpRelease) != "release" || ClientOpName(ClientOpPing) != "ping" {
		t.Fatal("op names")
	}
	if ClientOpName(0x7f) != "op?" {
		t.Fatal("unknown op name")
	}
	if !ClientDataOp(ClientOpCASStrong) || ClientDataOp(ClientOpOpen) {
		t.Fatal("ClientDataOp classification")
	}
}

func TestNodeInfoRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		groups, group int
		wantG, wantI  int
	}{
		{groups: 0, group: 0, wantG: 1, wantI: 0}, // unsharded
		{groups: 1, group: 0, wantG: 1, wantI: 0}, // 1 group == unsharded
		{groups: 2, group: 1, wantG: 2, wantI: 1},
		{groups: 8, group: 3, wantG: 8, wantI: 3},
	} {
		v := AppendNodeInfo(nil, tc.groups, tc.group, 7, 0b1011)
		g, i := ParseShardInfo(v)
		if g != tc.wantG || i != tc.wantI {
			t.Fatalf("ParseShardInfo(%v) = (%d,%d), want (%d,%d)", v, g, i, tc.wantG, tc.wantI)
		}
		g, i, epoch, members := ParseNodeInfo(v)
		if g != tc.wantG || i != tc.wantI || epoch != 7 || members != 0b1011 {
			t.Fatalf("ParseNodeInfo(%v) = (%d,%d,%d,%b)", v, g, i, epoch, members)
		}
	}
	// Short values (pre-membership servers) degrade to unknown membership.
	if g, i, epoch, members := ParseNodeInfo(nil); g != 1 || i != 0 || epoch != 0 || members != 0 {
		t.Fatalf("ParseNodeInfo(nil) = (%d,%d,%d,%b)", g, i, epoch, members)
	}
	if g, i, epoch, members := ParseNodeInfo([]byte{4, 2}); g != 4 || i != 2 || epoch != 0 || members != 0 {
		t.Fatalf("ParseNodeInfo(short) = (%d,%d,%d,%b)", g, i, epoch, members)
	}
}

func TestFlushIsDataOp(t *testing.T) {
	if !ClientDataOp(ClientOpFlush) {
		t.Fatal("flush must be a data op")
	}
	if ClientDataOp(ClientOpFlush + 1) {
		t.Fatal("op 8 must not be a data op")
	}
	if ClientOpName(ClientOpFlush) != "flush" {
		t.Fatalf("flush name = %q", ClientOpName(ClientOpFlush))
	}
	// A flush travels in batch frames like any data op.
	b := ClientBatch{Sess: 1, Seq: 5, Ops: []BatchOp{{Code: ClientOpFlush}}}
	buf, err := b.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got ClientBatch
	if err := got.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if got.Ops[0].Code != ClientOpFlush {
		t.Fatalf("batched flush decoded as %d", got.Ops[0].Code)
	}
}

// TestClientFrameGolden pins the frame encodings byte for byte: a datagram
// carrying one frame is exactly that frame, so these are also the
// one-frame datagrams every earlier client and server sent.
func TestClientFrameGolden(t *testing.T) {
	req := ClientRequest{
		Op: ClientOpCASStrong, Sess: 0x01020304, Seq: 5, Acked: 4,
		Key: 0x1122334455667788, Delta: 9, Expected: []byte("ab"), Value: []byte("xyz"),
	}
	rep := ClientReply{Status: ClientOK, Flags: ClientFlagSwapped, Sess: 0x01020304, Seq: 5, Value: []byte("old")}
	batch := ClientBatch{Sess: 3, Seq: 10, Acked: 9, Ops: []BatchOp{
		{Code: ClientOpFAA, Key: 1, Delta: 2},
		{Code: ClientOpWrite, Key: 7, Value: []byte("v")},
	}}
	for _, tc := range []struct {
		name     string
		frame    marshaler
		frameLen func([]byte) (int, error)
		want     string
	}{
		{"request", &req, RequestFrameLen,
			"06000203040302010500000000000000040000000000000088776655443322110900000000000000616278797a"},
		{"reply", &rep, ReplyFrameLen, "000103000403020105000000000000006f6c64"},
		{"batch", &batch, RequestFrameLen,
			"20000200030000000a000000000000000900000000000000040000010000000000000002000000000000000100010700000000000000000000000000000076"},
	} {
		b, err := tc.frame.AppendMarshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != tc.want {
			t.Errorf("%s frame\n got %s\nwant %s", tc.name, got, tc.want)
		}
		frame, rest, err := NextFrame(b, tc.frameLen)
		if err != nil || !bytes.Equal(frame, b) || len(rest) != 0 {
			t.Errorf("%s: one-frame datagram splits into %x + %x (%v)", tc.name, frame, rest, err)
		}
	}
}

// TestNextFrameTrain splits a packed train and stops at a corrupt tail.
func TestNextFrameTrain(t *testing.T) {
	a, _ := (&ClientRequest{Op: ClientOpWrite, Sess: 1, Seq: 1, Value: []byte("a")}).AppendMarshal(nil)
	b, _ := (&ClientBatch{Sess: 2, Seq: 1, Ops: []BatchOp{{Code: ClientOpRead, Key: 3}}}).AppendMarshal(nil)
	train := append(append(append([]byte(nil), a...), b...), a[:5]...) // truncated third frame
	frame, rest, err := NextFrame(train, RequestFrameLen)
	if err != nil || !bytes.Equal(frame, a) {
		t.Fatalf("first frame %x, %v", frame, err)
	}
	if frame, rest, err = NextFrame(rest, RequestFrameLen); err != nil || !bytes.Equal(frame, b) {
		t.Fatalf("second frame %x, %v", frame, err)
	}
	if _, _, err = NextFrame(rest, RequestFrameLen); err != ErrShortBuffer {
		t.Fatalf("truncated tail: %v, want ErrShortBuffer", err)
	}
	if n := (&ClientRequest{Value: []byte("ab")}).WireLen(); n != len(a)+1 {
		t.Fatalf("WireLen = %d, want %d", n, len(a)+1)
	}
}
