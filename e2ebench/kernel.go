package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"riptide/internal/core"
	"riptide/internal/netlink"
)

// Kernel is the benchmark's fake Linux kernel behind netlink.Conn. Unlike
// netlink.MemConn, which encodes its sock_diag dump once and never re-reads
// its socket table, Kernel keeps every IPv4 socket as one fixed-size
// SOCK_DIAG_BY_FAMILY record in a contiguous buffer and patches a record in
// place when its socket changes, so a churning table costs O(churn) to
// maintain and every dump serves the current state. Route requests
// (RTM_NEWROUTE / RTM_DELROUTE) are applied to a route map and acked per
// message, as the kernel acks NLM_F_ACK requests.
//
// The wire layout is the Linux ABI written out literally (the constants
// below), in host byte order, exactly as netlink speaks it.
//
// Kernel is not safe for concurrent use; one benchmark goroutine drives it.
type Kernel struct {
	recs []byte // socket records, recLen bytes each, dumped in slot order
	// handleAt maps a record slot to the handle the generator holds for
	// it; slotOf is the inverse (-1 for a free handle). Removal swaps the
	// last record into the freed slot, so handles stay stable.
	handleAt []int32
	slotOf   []int32
	free     []int32

	// Routes is the kernel route table: prefix to RTAX_INITCWND.
	Routes map[netip.Prefix]int

	// Counters, cumulative since construction.
	DumpBytes    uint64 // sock_diag response bytes copied out
	RouteSends   uint64 // route request datagrams received
	RouteMsgs    uint64 // RTM_NEWROUTE/RTM_DELROUTE messages received
	RouteFailure uint64 // route messages acked with a non-zero errno
}

// Linux ABI values used on the wire.
const (
	nlHdrLen   = 16  // struct nlmsghdr
	diagMsgLen = 72  // struct inet_diag_msg
	tcpInfoLen = 144 // struct tcp_info through tcpi_segs_in
	rtMsgLen   = 12  // struct rtmsg
	attrHdrLen = 4   // struct nlattr
	recLen     = nlHdrLen + diagMsgLen + attrHdrLen + tcpInfoLen

	nlmsgError       = 2
	nlmsgDone        = 3
	sockDiagByFamily = 20
	rtmNewRoute      = 24
	rtmDelRoute      = 25
	rtmGetRoute      = 26

	nlmFMulti = 0x2
	nlmFAck   = 0x4
	nlmFDump  = 0x300

	afInet         = 2
	tcpEstablished = 1
	inetDiagInfo   = 2

	rtaDst       = 1
	rtaMetrics   = 8
	rtaxInitCwnd = 11
	rtprotStatic = 4
	rtTableMain  = 254

	errnoESRCH  = 3
	errnoEINVAL = 22

	// Offsets inside one socket record.
	offSeq     = 8
	offDst     = nlHdrLen + 24
	offTCPInfo = nlHdrLen + diagMsgLen + attrHdrLen
	tiLost     = 32
	tiRTT      = 68
	tiCwnd     = 80
	tiRetrans  = 100
	tiAcked    = 120
	tiSegsOut  = 136

	// dumpMTU is the response datagram size a real kernel fills (~32KiB
	// skbs); records never straddle datagrams.
	dumpMTU      = 32 << 10
	recsPerDgram = dumpMTU / recLen
)

var ne = binary.NativeEndian

// NewKernel returns an empty kernel.
func NewKernel() *Kernel {
	return &Kernel{Routes: make(map[netip.Prefix]int)}
}

// Len returns the number of open sockets.
func (k *Kernel) Len() int { return len(k.handleAt) }

// AddSocket opens a socket for o (IPv4 destinations only) and returns its
// handle.
func (k *Kernel) AddSocket(o core.Observation) int {
	var h int32
	if n := len(k.free); n > 0 {
		h = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		h = int32(len(k.slotOf))
		k.slotOf = append(k.slotOf, -1)
	}
	slot := int32(len(k.handleAt))
	k.handleAt = append(k.handleAt, h)
	k.slotOf[h] = slot
	k.recs = append(k.recs, make([]byte, recLen)...)
	rec := k.recs[int(slot)*recLen:]
	ne.PutUint32(rec[0:], recLen)
	ne.PutUint16(rec[4:], sockDiagByFamily)
	ne.PutUint16(rec[6:], nlmFMulti)
	rec[nlHdrLen] = afInet
	rec[nlHdrLen+1] = tcpEstablished
	ne.PutUint16(rec[nlHdrLen+diagMsgLen:], attrHdrLen+tcpInfoLen)
	ne.PutUint16(rec[nlHdrLen+diagMsgLen+2:], inetDiagInfo)
	k.SetSocket(int(h), o)
	return int(h)
}

// SetSocket rewrites the socket's record in place: the same slot now
// describes o. A changed destination is a close-and-reopen on that slot.
func (k *Kernel) SetSocket(h int, o core.Observation) {
	rec := k.recs[int(k.slotOf[h])*recLen:]
	a := o.Dst.As4()
	copy(rec[offDst:offDst+4], a[:])
	ti := rec[offTCPInfo : offTCPInfo+tcpInfoLen]
	ne.PutUint32(ti[tiLost:], uint32(o.Lost))
	ne.PutUint32(ti[tiRTT:], uint32(o.RTT.Microseconds()))
	ne.PutUint32(ti[tiCwnd:], uint32(o.Cwnd))
	ne.PutUint32(ti[tiRetrans:], uint32(o.Retrans))
	ne.PutUint64(ti[tiAcked:], uint64(o.BytesAcked))
	ne.PutUint32(ti[tiSegsOut:], uint32(o.SegsOut))
}

// RemoveSocket closes the socket: the last record moves into its slot.
func (k *Kernel) RemoveSocket(h int) {
	slot := k.slotOf[h]
	last := int32(len(k.handleAt) - 1)
	if slot != last {
		copy(k.recs[int(slot)*recLen:int(slot+1)*recLen], k.recs[int(last)*recLen:])
		moved := k.handleAt[last]
		k.handleAt[slot] = moved
		k.slotOf[moved] = slot
	}
	k.handleAt = k.handleAt[:last]
	k.recs = k.recs[:int(last)*recLen]
	k.slotOf[h] = -1
	k.free = append(k.free, int32(h))
}

// Dial implements netlink.DialFunc: each call opens a fresh conversation
// on this kernel.
func (k *Kernel) Dial(proto int) (netlink.Conn, error) {
	return &kconn{k: k}, nil
}

// kconn is one netlink conversation: its own response queue over the
// shared kernel state.
type kconn struct {
	k       *Kernel
	pending [][]byte
	head    int
	seq     uint32 // sequence of the dump being answered
	ack     []byte
	scratch []byte // route dump encoding
	closed  bool
}

var errWouldBlock = errors.New("kernel: no pending response")

// Send implements netlink.Conn.
func (c *kconn) Send(req []byte) error {
	if c.closed {
		return errors.New("kernel: send on closed conn")
	}
	if c.head == len(c.pending) {
		c.pending = c.pending[:0]
		c.head = 0
	}
	c.ack = c.ack[:0]
	routeMsgs := 0
	for len(req) >= nlHdrLen {
		mlen := int(ne.Uint32(req))
		if mlen < nlHdrLen || mlen > len(req) {
			return fmt.Errorf("kernel: malformed request (len %d of %d)", mlen, len(req))
		}
		typ := ne.Uint16(req[4:])
		flags := ne.Uint16(req[6:])
		hdr, payload := req[:nlHdrLen], req[nlHdrLen:mlen]
		req = req[min((mlen+3)&^3, len(req)):]
		switch typ {
		case sockDiagByFamily:
			if flags&nlmFDump != nlmFDump || len(payload) < 1 {
				return fmt.Errorf("kernel: unsupported sock_diag request (flags %#x)", flags)
			}
			c.seq = ne.Uint32(hdr[8:])
			if payload[0] == afInet {
				for off := 0; off < len(c.k.recs); off += recsPerDgram * recLen {
					c.pending = append(c.pending, c.k.recs[off:min(off+recsPerDgram*recLen, len(c.k.recs))])
				}
			}
			c.pending = append(c.pending, doneMsg[:])
		case rtmGetRoute:
			c.seq = ne.Uint32(hdr[8:])
			c.scratch = c.k.appendRouteDump(c.scratch[:0])
			if len(c.scratch) > 0 {
				c.pending = append(c.pending, c.scratch)
			}
			c.pending = append(c.pending, doneMsg[:])
		case rtmNewRoute, rtmDelRoute:
			routeMsgs++
			e := c.k.applyRoute(typ == rtmDelRoute, payload)
			if e != 0 {
				c.k.RouteFailure++
			}
			if flags&nlmFAck != 0 || e != 0 {
				c.ack = appendAck(c.ack, hdr, e)
			}
		default:
			return fmt.Errorf("kernel: unsupported message type %d", typ)
		}
	}
	if routeMsgs > 0 {
		c.k.RouteSends++
		c.k.RouteMsgs += uint64(routeMsgs)
	}
	if len(c.ack) > 0 {
		c.pending = append(c.pending, c.ack)
	}
	return nil
}

// doneMsg is an NLMSG_DONE with sequence 0, patched on copy-out.
var doneMsg = func() (b [nlHdrLen + 4]byte) {
	ne.PutUint32(b[0:], uint32(len(b)))
	ne.PutUint16(b[4:], nlmsgDone)
	ne.PutUint16(b[6:], nlmFMulti)
	return b
}()

// Receive implements netlink.Conn: it copies the next datagram out and
// stamps the dump's sequence number into every message of the copy.
func (c *kconn) Receive(p []byte) (int, error) {
	if c.closed {
		return 0, errors.New("kernel: receive on closed conn")
	}
	if c.head == len(c.pending) {
		return 0, errWouldBlock
	}
	d := c.pending[c.head]
	c.head++
	n := copy(p, d)
	if len(d) > 0 && ne.Uint16(d[4:]) != nlmsgError {
		for b := p[:n]; len(b) >= nlHdrLen; {
			ne.PutUint32(b[offSeq:], c.seq)
			adv := (int(ne.Uint32(b)) + 3) &^ 3
			if adv < nlHdrLen || adv > len(b) {
				break
			}
			b = b[adv:]
		}
		if ne.Uint16(d[4:]) == sockDiagByFamily {
			c.k.DumpBytes += uint64(n)
		}
	}
	return len(d), nil
}

// Close implements netlink.Conn.
func (c *kconn) Close() error {
	c.closed = true
	c.pending = c.pending[:0]
	c.head = 0
	return nil
}

// applyRoute decodes one rtmsg request and applies it to the route table,
// returning the errno the kernel would ack.
func (k *Kernel) applyRoute(del bool, payload []byte) int32 {
	if len(payload) < rtMsgLen || payload[0] != afInet || payload[1] > 32 {
		return errnoEINVAL
	}
	bits := int(payload[1])
	var dst [4]byte
	cwnd := 0
	attrs := payload[rtMsgLen:]
	for off := 0; off+attrHdrLen <= len(attrs); {
		alen := int(ne.Uint16(attrs[off:]))
		if alen < attrHdrLen || off+alen > len(attrs) {
			return errnoEINVAL
		}
		val := attrs[off+attrHdrLen : off+alen]
		switch ne.Uint16(attrs[off+2:]) {
		case rtaDst:
			if len(val) < 4 {
				return errnoEINVAL
			}
			copy(dst[:], val)
		case rtaMetrics:
			for m := 0; m+attrHdrLen <= len(val); {
				mlen := int(ne.Uint16(val[m:]))
				if mlen < attrHdrLen || m+mlen > len(val) {
					return errnoEINVAL
				}
				if ne.Uint16(val[m+2:]) == rtaxInitCwnd && mlen >= attrHdrLen+4 {
					cwnd = int(ne.Uint32(val[m+attrHdrLen:]))
				}
				m += (mlen + 3) &^ 3
			}
		}
		off += (alen + 3) &^ 3
	}
	prefix := netip.PrefixFrom(netip.AddrFrom4(dst), bits)
	if del {
		if _, ok := k.Routes[prefix]; !ok {
			return errnoESRCH
		}
		delete(k.Routes, prefix)
		return 0
	}
	if cwnd < 1 {
		return errnoEINVAL
	}
	k.Routes[prefix] = cwnd
	return 0
}

// appendRouteDump renders the route table as RTM_NEWROUTE dump messages
// (main table, proto static, RTA_DST plus RTAX_INITCWND).
func (k *Kernel) appendRouteDump(b []byte) []byte {
	for p, cwnd := range k.Routes {
		start := len(b)
		b = append(b, make([]byte, nlHdrLen+rtMsgLen)...)
		m := b[start+nlHdrLen:]
		m[0] = afInet
		m[1] = byte(p.Bits())
		m[4] = rtTableMain
		m[5] = rtprotStatic
		m[7] = 1 // RTN_UNICAST
		a := p.Addr().As4()
		b = appendAttr(b, rtaDst, a[:])
		var metric [8]byte
		ne.PutUint16(metric[0:], 8)
		ne.PutUint16(metric[2:], rtaxInitCwnd)
		ne.PutUint32(metric[4:], uint32(cwnd))
		b = appendAttr(b, rtaMetrics, metric[:])
		ne.PutUint32(b[start:], uint32(len(b)-start))
		ne.PutUint16(b[start+4:], rtmNewRoute)
		ne.PutUint16(b[start+6:], nlmFMulti)
	}
	return b
}

func appendAttr(b []byte, typ uint16, val []byte) []byte {
	var h [attrHdrLen]byte
	ne.PutUint16(h[0:], uint16(attrHdrLen+len(val)))
	ne.PutUint16(h[2:], typ)
	b = append(b, h[:]...)
	b = append(b, val...)
	for len(b)%4 != 0 {
		b = append(b, 0)
	}
	return b
}

// appendAck appends the NLMSG_ERROR acking the request whose header is hdr:
// the negated errno, then the echoed request header.
func appendAck(b, hdr []byte, errno int32) []byte {
	start := len(b)
	b = append(b, make([]byte, nlHdrLen+4)...)
	ne.PutUint32(b[start:], nlHdrLen+4+nlHdrLen)
	ne.PutUint16(b[start+4:], nlmsgError)
	ne.PutUint32(b[start+8:], ne.Uint32(hdr[8:]))
	ne.PutUint32(b[start+nlHdrLen:], uint32(-errno))
	return append(b, hdr[:nlHdrLen]...)
}
