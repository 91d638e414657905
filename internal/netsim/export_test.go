package netsim

// enqueue runs the port's queue discipline on p as Send does, without
// the link check or the kick, so that a test can fill a queue and read
// what it kept.
func (p *Port) enqueue(pkt *Packet) bool {
	return p.net.enqueue(p.hot(), &p.stats, pkt)
}

// dequeue takes the packet the port would serialize next.
func (p *Port) dequeue() *Packet { return p.net.dequeue(p.hot()) }
