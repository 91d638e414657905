package polyraptor_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"polyraptor"
)

// ExampleEncodeObject demonstrates the systematic rateless codec:
// source symbols come back verbatim, and any lost symbol is replaced
// by a fresh repair symbol rather than a retransmission.
func ExampleEncodeObject() {
	object := []byte("polyraptor: path and data redundancy for data centres!!")
	enc, err := polyraptor.EncodeObject(object, 8, 16)
	if err != nil {
		log.Fatal(err)
	}
	layout := enc.Layout()
	fmt.Println("blocks:", layout.Z(), "source symbols:", layout.TotalSymbols())

	dec, err := polyraptor.NewObjectDecoder(layout)
	if err != nil {
		log.Fatal(err)
	}
	// Deliver the source symbols, "losing" ESI 2; add repair symbols
	// until the block decodes.
	k := layout.K[0]
	for esi := 0; esi < k; esi++ {
		if esi == 2 {
			continue // eaten by a congested queue
		}
		dec.AddSymbol(0, uint32(esi), enc.Symbol(0, uint32(esi)))
	}
	esi := uint32(k)
	for !dec.TryDecode() {
		dec.AddSymbol(0, esi, enc.Symbol(0, esi))
		esi++
	}
	got, err := dec.Object()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(got))
	// Output:
	// blocks: 1 source symbols: 7
	// polyraptor: path and data redundancy for data centres!!
}

// ExampleFetch transfers an object over loopback UDP with the
// pull-based protocol.
func ExampleFetch() {
	object := []byte("an object worth replicating")
	srvConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv, err := polyraptor.NewServer(srvConn, object, polyraptor.DefaultTransportConfig())
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := polyraptor.Fetch(ctx, conn, srv.Addr(), 1, polyraptor.DefaultTransportConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(got))
	// Output:
	// an object worth replicating
}

// ExampleFetchMultiSource pulls one object from three uncoordinated
// replica servers at once (the Figure 1b pattern over real UDP). The
// Hello index fixes each server's disjoint symbol schedule, so no
// server sends a symbol another server sends, without any
// server-to-server coordination.
func ExampleFetchMultiSource() {
	object := make([]byte, 256<<10)
	rand.New(rand.NewSource(3)).Read(object)
	var remotes []net.Addr
	for i := 0; i < 3; i++ {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv, err := polyraptor.NewServer(conn, object, polyraptor.DefaultTransportConfig())
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve()
		defer srv.Close()
		remotes = append(remotes, srv.Addr())
	}

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := polyraptor.FetchMultiSource(ctx, conn, remotes, 99, polyraptor.DefaultTransportConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fetched %d bytes from %d sources, bit-exact: %v\n", len(got), len(remotes), bytes.Equal(got, object))
	// Output:
	// fetched 262144 bytes from 3 sources, bit-exact: true
}
