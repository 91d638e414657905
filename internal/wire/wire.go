// Package wire defines the binary wire format of the real (UDP)
// Polyraptor transport in internal/rqudp: a fixed 8-byte header
// followed by a message-specific body, all big-endian. The format is
// versioned and deliberately tiny — symbols are self-describing via
// (SBN, ESI), which is all a rateless receiver needs.
//
// Version 3, byte by byte (version 2's Pull carried the grant alone, and
// version 1 counted credits per pull and had no Seq; a packet of either is
// refused with ErrBadVersion):
//
//	header    magic 0xA7 | version 3 | type | 0 | flow u32
//	Hello     idx u8 | count u8 | grant u32
//	Announce  object bytes u64 | symbol bytes u32 | max K u32
//	Data      SBN u32 | ESI u32 | seq u32 | len u16 | payload
//	Pull      grant u32 | low SBN u32 | done above u64
//	Done      (header only)
//
// Seq numbers the Data packets of one session in the order their sender
// emitted them, from 0. A grant is cumulative: "you may have emitted this
// many in all". Both wrap at 2^32 and are compared as serial numbers; a
// grant restates everything before it, so one that is lost, repeated or
// overtaken changes nothing.
// A Pull also names the blocks the receiver has finished (Blocks). Blocks
// only ever finish, so a sender keeps what all it was told says, and
// here too a Pull lost, repeated or overtaken changes nothing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic and Version guard against cross-protocol traffic.
const (
	Magic   = 0xA7
	Version = 3
)

// MsgType enumerates protocol messages.
type MsgType uint8

const (
	// MsgHello opens a session: receiver -> sender. It carries the
	// receiver's position in a multi-source fetch so the sender can
	// compute its symbol partition without coordination.
	MsgHello MsgType = iota + 1
	// MsgAnnounce answers a Hello with the object geometry.
	MsgAnnounce
	// MsgData carries one encoding symbol.
	MsgData
	// MsgPull requests more symbols (receiver -> sender).
	MsgPull
	// MsgDone tears the session down (receiver -> sender).
	MsgDone
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgAnnounce:
		return "announce"
	case MsgData:
		return "data"
	case MsgPull:
		return "pull"
	case MsgDone:
		return "done"
	}
	return fmt.Sprintf("unknown(%d)", uint8(t))
}

// Errors returned by parsers.
var (
	ErrTruncated  = errors.New("wire: truncated packet")
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadType    = errors.New("wire: unknown message type")
)

const headerLen = 8

// DataOverhead is the length of a Data packet beyond its payload.
const DataOverhead = headerLen + 14

// Header is the fixed prefix of every packet.
type Header struct {
	Type MsgType
	Flow uint32
}

// appendHeader writes the common prefix.
func appendHeader(dst []byte, t MsgType, flow uint32) []byte {
	dst = append(dst, Magic, Version, byte(t), 0)
	return binary.BigEndian.AppendUint32(dst, flow)
}

// ParseHeader validates the prefix and returns the header and body.
func ParseHeader(pkt []byte) (Header, []byte, error) {
	if len(pkt) < headerLen {
		return Header{}, nil, ErrTruncated
	}
	if pkt[0] != Magic {
		return Header{}, nil, ErrBadMagic
	}
	if pkt[1] != Version {
		return Header{}, nil, ErrBadVersion
	}
	t := MsgType(pkt[2])
	if t < MsgHello || t > MsgDone {
		return Header{}, nil, ErrBadType
	}
	return Header{Type: t, Flow: binary.BigEndian.Uint32(pkt[4:8])}, pkt[headerLen:], nil
}

// Hello opens a session.
type Hello struct {
	Flow        uint32
	SenderIdx   uint8  // this sender's index in a multi-source fetch
	SenderCount uint8  // total senders (1 for unicast)
	Grant       uint32 // the first grant: the burst the receiver asks for
}

// AppendHello marshals a Hello.
func AppendHello(dst []byte, h Hello) []byte {
	dst = appendHeader(dst, MsgHello, h.Flow)
	dst = append(dst, h.SenderIdx, h.SenderCount)
	return binary.BigEndian.AppendUint32(dst, h.Grant)
}

// ParseHello unmarshals a Hello body.
func ParseHello(flow uint32, body []byte) (Hello, error) {
	if len(body) < 6 {
		return Hello{}, ErrTruncated
	}
	h := Hello{Flow: flow, SenderIdx: body[0], SenderCount: body[1], Grant: binary.BigEndian.Uint32(body[2:6])}
	if h.SenderCount == 0 || h.SenderIdx >= h.SenderCount {
		return Hello{}, fmt.Errorf("wire: sender %d of %d invalid", h.SenderIdx, h.SenderCount)
	}
	return h, nil
}

// Announce carries the object geometry from sender to receiver.
type Announce struct {
	Flow       uint32
	ObjectSize uint64
	SymbolSize uint32
	MaxK       uint32
}

// AppendAnnounce marshals an Announce.
func AppendAnnounce(dst []byte, a Announce) []byte {
	dst = appendHeader(dst, MsgAnnounce, a.Flow)
	dst = binary.BigEndian.AppendUint64(dst, a.ObjectSize)
	dst = binary.BigEndian.AppendUint32(dst, a.SymbolSize)
	return binary.BigEndian.AppendUint32(dst, a.MaxK)
}

// ParseAnnounce unmarshals an Announce body.
func ParseAnnounce(flow uint32, body []byte) (Announce, error) {
	if len(body) < 16 {
		return Announce{}, ErrTruncated
	}
	a := Announce{
		Flow:       flow,
		ObjectSize: binary.BigEndian.Uint64(body[0:8]),
		SymbolSize: binary.BigEndian.Uint32(body[8:12]),
		MaxK:       binary.BigEndian.Uint32(body[12:16]),
	}
	if a.ObjectSize == 0 || a.SymbolSize == 0 || a.MaxK == 0 {
		return Announce{}, fmt.Errorf("wire: zero geometry in announce")
	}
	return a, nil
}

// Data carries one encoding symbol.
type Data struct {
	Flow    uint32
	SBN     uint32
	ESI     uint32
	Seq     uint32 // the sender's emit counter for this session
	Payload []byte
}

// AppendData marshals a Data packet. The payload is copied into dst.
func AppendData(dst []byte, d Data) []byte {
	return append(AppendDataHeader(dst, d, len(d.Payload)), d.Payload...)
}

// AppendDataHeader marshals everything of a Data packet but its payload,
// for a sender that generates the payloadLen bytes in place after it.
// d.Payload is ignored.
func AppendDataHeader(dst []byte, d Data, payloadLen int) []byte {
	dst = appendHeader(dst, MsgData, d.Flow)
	dst = binary.BigEndian.AppendUint32(dst, d.SBN)
	dst = binary.BigEndian.AppendUint32(dst, d.ESI)
	dst = binary.BigEndian.AppendUint32(dst, d.Seq)
	return binary.BigEndian.AppendUint16(dst, uint16(payloadLen))
}

// ParseData unmarshals a Data body. The payload aliases body.
func ParseData(flow uint32, body []byte) (Data, error) {
	if len(body) < 14 {
		return Data{}, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(body[12:14]))
	if len(body) < 14+n {
		return Data{}, ErrTruncated
	}
	return Data{
		Flow:    flow,
		SBN:     binary.BigEndian.Uint32(body[0:4]),
		ESI:     binary.BigEndian.Uint32(body[4:8]),
		Seq:     binary.BigEndian.Uint32(body[8:12]),
		Payload: body[14 : 14+n],
	}, nil
}

// Pull requests more symbols.
type Pull struct {
	Flow   uint32
	Grant  uint32 // how many symbols the sender may have emitted in all
	Blocks Blocks // the blocks the receiver needs nothing more of
}

// Blocks is a receiver's block state: every block below Low is finished,
// Low is not, and block Low+1+i is where bit i of Above is set. Of the
// blocks beyond Low+64 it says nothing.
type Blocks struct {
	Low   uint32
	Above uint64
}

// Done reports whether b says block sbn is finished.
func (b Blocks) Done(sbn uint32) bool {
	return sbn < b.Low || sbn > b.Low && sbn-b.Low-1 < 64 && b.Above>>(sbn-b.Low-1)&1 != 0
}

// Merge is what b and c say together when one says all the other does, as
// any two states of one receiver do, blocks only ever finishing: the one
// with the higher Low, or at the same Low the bits of both.
func (b Blocks) Merge(c Blocks) Blocks {
	if c.Low > b.Low {
		return c
	}
	if c.Low == b.Low {
		b.Above |= c.Above
	}
	return b
}

// AppendPull marshals a Pull.
func AppendPull(dst []byte, p Pull) []byte {
	dst = appendHeader(dst, MsgPull, p.Flow)
	dst = binary.BigEndian.AppendUint32(dst, p.Grant)
	dst = binary.BigEndian.AppendUint32(dst, p.Blocks.Low)
	return binary.BigEndian.AppendUint64(dst, p.Blocks.Above)
}

// ParsePull unmarshals a Pull body. Every grant and block state is valid:
// the counter wraps, and a state says only what is finished.
func ParsePull(flow uint32, body []byte) (Pull, error) {
	if len(body) < 16 {
		return Pull{}, ErrTruncated
	}
	return Pull{Flow: flow, Grant: binary.BigEndian.Uint32(body[0:4]), Blocks: Blocks{
		Low:   binary.BigEndian.Uint32(body[4:8]),
		Above: binary.BigEndian.Uint64(body[8:16]),
	}}, nil
}

// AppendDone marshals a Done message (header only).
func AppendDone(dst []byte, flow uint32) []byte {
	return appendHeader(dst, MsgDone, flow)
}
