package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Flow: 0xDEADBEEF, SenderIdx: 2, SenderCount: 5, Grant: 1<<32 - 2}
	pkt := AppendHello(nil, h)
	hdr, body, err := ParseHeader(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Type != MsgHello || hdr.Flow != h.Flow {
		t.Fatalf("header = %+v", hdr)
	}
	got, err := ParseHello(hdr.Flow, body)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestHelloValidation(t *testing.T) {
	if _, err := ParseHello(1, []byte{0, 1, 0, 0, 0}); err != ErrTruncated {
		t.Fatalf("short hello: %v", err)
	}
	if _, err := ParseHello(1, []byte{0, 0, 0, 0, 0, 1}); err == nil {
		t.Fatal("zero sender count accepted")
	}
	if _, err := ParseHello(1, []byte{3, 3, 0, 0, 0, 1}); err == nil {
		t.Fatal("senderIdx >= senderCount accepted")
	}
}

func TestAnnounceRoundTrip(t *testing.T) {
	a := Announce{Flow: 7, ObjectSize: 1 << 33, SymbolSize: 1024, MaxK: 256}
	hdr, body, err := ParseHeader(AppendAnnounce(nil, a))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAnnounce(hdr.Flow, body)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip: %+v != %+v", got, a)
	}
}

func TestAnnounceValidation(t *testing.T) {
	if _, err := ParseAnnounce(1, make([]byte, 15)); err != ErrTruncated {
		t.Fatal("short announce accepted")
	}
	bad := AppendAnnounce(nil, Announce{Flow: 1, ObjectSize: 0, SymbolSize: 1, MaxK: 1})
	_, body, _ := ParseHeader(bad)
	if _, err := ParseAnnounce(1, body); err == nil {
		t.Fatal("zero object size accepted")
	}
}

func TestDataRoundTrip(t *testing.T) {
	d := Data{Flow: 9, SBN: 3, ESI: 77, Seq: 1<<32 - 1, Payload: []byte("symbol-bytes")}
	hdr, body, err := ParseHeader(AppendData(nil, d))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseData(hdr.Flow, body)
	if err != nil {
		t.Fatal(err)
	}
	if got.SBN != d.SBN || got.ESI != d.ESI || got.Seq != d.Seq || !bytes.Equal(got.Payload, d.Payload) {
		t.Fatalf("round trip: %+v != %+v", got, d)
	}
	if want := len(d.Payload) + DataOverhead; len(AppendData(nil, d)) != want {
		t.Fatalf("a Data packet of %d bytes, DataOverhead says %d", len(AppendData(nil, d)), want)
	}
}

func TestDataTruncatedPayload(t *testing.T) {
	pkt := AppendData(nil, Data{Flow: 1, Payload: make([]byte, 100)})
	_, body, _ := ParseHeader(pkt[:len(pkt)-1])
	if _, err := ParseData(1, body); err != ErrTruncated {
		t.Fatalf("truncated payload: %v", err)
	}
}

func TestPullRoundTrip(t *testing.T) {
	p := Pull{Flow: 4, Grant: 1 << 31, Blocks: Blocks{Low: 7, Above: 1<<63 | 5}}
	hdr, body, err := ParseHeader(AppendPull(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePull(hdr.Flow, body)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip: %+v != %+v", got, p)
	}
	// Every grant is one: the counter wraps through zero.
	if got, err := ParsePull(1, make([]byte, 16)); err != nil || got.Grant != 0 || got.Blocks != (Blocks{}) {
		t.Fatalf("a grant of zero, no block finished: %+v, %v", got, err)
	}
	// A version 2 Pull's body, the grant alone, is short of the block state.
	if _, err := ParsePull(1, []byte{0, 0, 1, 0}); err != ErrTruncated {
		t.Fatalf("short pull: %v", err)
	}
}

// A packet of the versions that counted credits (1) or pulled without
// naming the finished blocks (2) is not half-understood: it is refused
// whole, whatever its type.
func TestVersion1Refused(t *testing.T) {
	for _, v := range []byte{1, 2} {
		for typ := MsgHello; typ <= MsgDone; typ++ {
			old := []byte{Magic, v, byte(typ), 0, 0, 0, 0, 7, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
			if _, _, err := ParseHeader(old); err != ErrBadVersion {
				t.Fatalf("a version %d %v: %v", v, typ, err)
			}
		}
	}
}

// Done reads the state as the wire table says, and Merge keeps the later
// of two states of one receiver, whichever order they come in.
func TestBlocksDoneAndMerge(t *testing.T) {
	b := Blocks{Low: 3, Above: 0b101} // 0-2 done, 3 not, 4 done, 5 not, 6 done
	for sbn, want := range []bool{true, true, true, false, true, false, true, false} {
		if b.Done(uint32(sbn)) != want {
			t.Fatalf("block %d done: %v, want %v", sbn, !want, want)
		}
	}
	if !(Blocks{Above: 1 << 63}).Done(64) || (Blocks{}).Done(65) || (Blocks{Above: ^uint64(0)}).Done(65) {
		t.Fatal("bit 63 is block Low+64, and nothing beyond is done")
	}
	for _, tc := range []struct{ older, later Blocks }{
		{Blocks{Low: 3, Above: 0b101}, Blocks{Low: 3, Above: 0b111}},
		{Blocks{Low: 3, Above: 0b101}, Blocks{Low: 5, Above: 0b1}},
		{Blocks{Low: 0, Above: 1 << 63}, Blocks{Low: 100}},
		{Blocks{}, Blocks{}},
	} {
		for _, got := range []Blocks{tc.older.Merge(tc.later), tc.later.Merge(tc.older)} {
			if got != tc.later {
				t.Fatalf("%+v with %+v: %+v, want the later", tc.older, tc.later, got)
			}
		}
	}
}

func TestDoneRoundTrip(t *testing.T) {
	hdr, body, err := ParseHeader(AppendDone(nil, 42))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Type != MsgDone || hdr.Flow != 42 || len(body) != 0 {
		t.Fatalf("done = %+v body=%d", hdr, len(body))
	}
}

func TestParseHeaderRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		{0x00, Version, byte(MsgData), 0, 0, 0, 0, 1}, // bad magic
		{Magic, 99, byte(MsgData), 0, 0, 0, 0, 1},     // bad version
		{Magic, Version, 0, 0, 0, 0, 0, 1},            // type 0
		{Magic, Version, 200, 0, 0, 0, 0, 1},          // type out of range
	}
	wants := []error{ErrTruncated, ErrTruncated, ErrBadMagic, ErrBadVersion, ErrBadType, ErrBadType}
	for i, pkt := range cases {
		if _, _, err := ParseHeader(pkt); err != wants[i] {
			t.Fatalf("case %d: err = %v, want %v", i, err, wants[i])
		}
	}
}

func TestDataRoundTripQuick(t *testing.T) {
	f := func(flow, sbn, esi, seq uint32, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		d := Data{Flow: flow, SBN: sbn, ESI: esi, Seq: seq, Payload: payload}
		hdr, body, err := ParseHeader(AppendData(nil, d))
		if err != nil || hdr.Flow != flow {
			return false
		}
		got, err := ParseData(flow, body)
		if err != nil {
			return false
		}
		return got.SBN == sbn && got.ESI == esi && got.Seq == seq && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 128)
	out := AppendPull(buf, Pull{Flow: 1, Grant: 1})
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendPull reallocated despite capacity")
	}
}
