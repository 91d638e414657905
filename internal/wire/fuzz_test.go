package wire

import (
	"bytes"
	"testing"
)

// FuzzParse feeds arbitrary bytes to ParseHeader and, for whatever
// passes, to the parser of its message type: none may panic, and what
// parses says what it was parsed from — marshalled again it is the
// packet's own bytes, up to where the message ends (a parser ignores
// what follows) and but for the header's reserved byte (which a sender
// leaves zero and a parser does not read).
func FuzzParse(f *testing.F) {
	f.Add(AppendHello(nil, Hello{Flow: 1, SenderIdx: 2, SenderCount: 3, Grant: 64}))
	f.Add(AppendHello(nil, Hello{Flow: 1, SenderIdx: 3, SenderCount: 3})) // refused: no such sender
	f.Add(AppendAnnounce(nil, Announce{Flow: 2, ObjectSize: 1 << 40, SymbolSize: 1024, MaxK: 256}))
	f.Add(AppendAnnounce(nil, Announce{Flow: 2, ObjectSize: 0, SymbolSize: 1024, MaxK: 256})) // refused: no geometry
	f.Add(AppendData(nil, Data{Flow: 3, SBN: 4, ESI: 1<<32 - 1, Seq: 1<<32 - 1, Payload: []byte("payload")}))
	f.Add(AppendData(nil, Data{Flow: 3})[:headerLen+13])                 // cut short in the length field
	f.Add(append(AppendData(nil, Data{Flow: 3, Payload: []byte{1}}), 9)) // a byte after the payload
	f.Add(AppendPull(nil, Pull{Flow: 4, Grant: 1<<32 - 1}))
	f.Add(AppendPull(nil, Pull{Flow: 4})) // a grant of zero: the counter wraps
	f.Add(AppendPull(nil, Pull{Flow: 4, Grant: 9, Blocks: Blocks{Low: 1<<32 - 1, Above: ^uint64(0)}}))
	f.Add(AppendPull(nil, Pull{Flow: 4, Grant: 9, Blocks: Blocks{Low: 3, Above: 0b101}})[:headerLen+15]) // cut short in the done bits
	f.Add([]byte{Magic, 2, byte(MsgPull), 0, 0, 0, 0, 4, 0, 0, 0, 16})                                   // a version 2 Pull, refused
	f.Add(AppendDone(nil, 5))
	f.Add([]byte{Magic, Version, byte(MsgDone), 0xFF, 0, 0, 0, 5}) // the reserved byte set
	f.Add([]byte{Magic, Version + 1, byte(MsgDone), 0, 0, 0, 0, 5})
	f.Add([]byte{Magic, Version, byte(MsgDone) + 1, 0, 0, 0, 0, 5})
	f.Add([]byte{Magic, Version, byte(MsgHello)})
	f.Add([]byte{Magic, 1, byte(MsgPull), 0, 0, 0, 0, 4, 0, 16})                          // a version 1 Pull of 16 credits
	f.Add(AppendHello(nil, Hello{Flow: 1, SenderCount: 1, Grant: 1 << 31})[:headerLen+5]) // cut short in the grant
	f.Add(AppendPull(nil, Pull{Flow: 4, Grant: 1 << 31})[:headerLen+3])

	f.Fuzz(func(t *testing.T, pkt []byte) {
		hdr, body, err := ParseHeader(pkt)
		if err != nil {
			return
		}
		if len(body) != len(pkt)-headerLen {
			t.Fatalf("a %d-byte packet has a %d-byte body", len(pkt), len(body))
		}
		var again []byte
		switch hdr.Type {
		case MsgHello:
			m, err := ParseHello(hdr.Flow, body)
			if err != nil {
				return
			}
			again = AppendHello(nil, m)
		case MsgAnnounce:
			m, err := ParseAnnounce(hdr.Flow, body)
			if err != nil {
				return
			}
			again = AppendAnnounce(nil, m)
		case MsgData:
			m, err := ParseData(hdr.Flow, body)
			if err != nil {
				return
			}
			again = AppendData(nil, m)
		case MsgPull:
			m, err := ParsePull(hdr.Flow, body)
			if err != nil {
				return
			}
			again = AppendPull(nil, m)
		case MsgDone:
			again = AppendDone(nil, hdr.Flow)
		default:
			t.Fatalf("ParseHeader passed message type %d", hdr.Type)
		}
		if len(again) > len(pkt) {
			t.Fatalf("%v parsed from %d bytes marshals to %d", hdr.Type, len(pkt), len(again))
		}
		want := bytes.Clone(pkt[:len(again)])
		want[3] = 0
		if !bytes.Equal(again, want) {
			t.Fatalf("%v marshals to %x, parsed from %x", hdr.Type, again, want)
		}
	})
}
