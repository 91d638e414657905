package polyraptor

import "polyraptor/internal/idring"

// flowTable maps the flows open at one agent to their sender and
// receiver sessions. Every delivered packet and every paced pull looks a
// flow up, so the table is an idring window over the flow IDs, not a
// map.
type flowTable struct {
	ends       idring.Table[flowEnds]
	send, recv int // open sessions of each kind
}

// flowEnds is one flow's sessions at an agent; a flow is in the table
// while either is set.
type flowEnds struct {
	send *senderSession
	recv *receiverSession
}

// sender returns flow's sender session here, or nil.
//
//polyvet:noalloc runs per delivered pull
func (t *flowTable) sender(flow int32) *senderSession {
	if e := t.ends.Get(flow); e != nil {
		return e.send
	}
	return nil
}

// receiver returns flow's receiver session here, or nil.
//
//polyvet:noalloc runs per delivered symbol and per paced pull
func (t *flowTable) receiver(flow int32) *receiverSession {
	if e := t.ends.Get(flow); e != nil {
		return e.recv
	}
	return nil
}

// putSender opens (or replaces) flow's sender session here.
func (t *flowTable) putSender(flow int32, ss *senderSession) {
	e := t.ends.Claim(flow)
	if e.send == nil {
		t.send++
	}
	e.send = ss
}

// putReceiver opens (or replaces) flow's receiver session here.
func (t *flowTable) putReceiver(flow int32, rs *receiverSession) {
	e := t.ends.Claim(flow)
	if e.recv == nil {
		t.recv++
	}
	e.recv = rs
}

// dropSender closes flow's sender session here, if it has one.
func (t *flowTable) dropSender(flow int32) {
	if e := t.ends.Get(flow); e != nil && e.send != nil {
		e.send = nil
		t.send--
		if e.recv == nil {
			t.ends.Free(flow)
		}
	}
}

// dropReceiver closes flow's receiver session here, if it has one.
func (t *flowTable) dropReceiver(flow int32) {
	if e := t.ends.Get(flow); e != nil && e.recv != nil {
		e.recv = nil
		t.recv--
		if e.send == nil {
			t.ends.Free(flow)
		}
	}
}
