package main

import "encoding/binary"

// The benchmark builds and checks frames with its own code, not the
// program's packet helpers, so a fault shared by both cannot hide.

const (
	ethLen     = 14
	ipLen      = 20
	udpLen     = 8
	frameLen   = 64 // the smallest Ethernet frame, FCS excluded
	payloadLen = frameLen - ethLen - ipLen - udpLen
	protoICMP  = 1
	protoUDP   = 17
)

// ifPlan is one router interface and its attached host, the
// benchmark's own copy of the addressing plan the router is configured
// with: interface i is 10.0.i.1 with MAC 00:00:c0:00:i:01, and its
// host 10.0.i.2 with MAC 00:00:c0:00:i:02.
type ifPlan struct {
	addr, host       [4]byte
	routerMAC, hostM [6]byte
}

func plan(i int) ifPlan {
	return ifPlan{
		addr:      [4]byte{10, 0, byte(i), 1},
		host:      [4]byte{10, 0, byte(i), 2},
		routerMAC: [6]byte{0, 0, 0xc0, 0, byte(i), 1},
		hostM:     [6]byte{0, 0, 0xc0, 0, byte(i), 2},
	}
}

// route is one entry of the benchmark's copy of the route table.
type route struct {
	net, mask uint32
	port      int // interface, or nIfs for "to host"
}

// routeTable mirrors the IP router's LookupIPRoute table for n
// interfaces: a /32 per router address (delivered to the host stack)
// and a /24 per attached network.
func routeTable(n int) []route {
	var rs []route
	for i := 0; i < n; i++ {
		rs = append(rs, route{net: ip4(plan(i).addr), mask: 0xffffffff, port: n})
	}
	for i := 0; i < n; i++ {
		a := plan(i).addr
		a[3] = 0
		rs = append(rs, route{net: ip4(a), mask: 0xffffff00, port: i})
	}
	return rs
}

// lpm is a longest-prefix match over the table (-1: no route).
func lpm(rs []route, dst uint32) int {
	best, bestMask := -1, uint32(0)
	for _, r := range rs {
		if dst&r.mask == r.net && (best < 0 || r.mask > bestMask) {
			best, bestMask = r.port, r.mask
		}
	}
	return best
}

func ip4(a [4]byte) uint32 { return binary.BigEndian.Uint32(a[:]) }

// checksum is the RFC 1071 Internet checksum of b.
func checksum(b []byte) uint16 {
	var s uint32
	for i := 0; i+1 < len(b); i += 2 {
		s += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		s += uint32(b[len(b)-1]) << 8
	}
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return ^uint16(s)
}

// setIPChecksum recomputes an IPv4 header's checksum in place.
func setIPChecksum(h []byte) {
	h[10], h[11] = 0, 0
	binary.BigEndian.PutUint16(h[10:12], checksum(h[:ipLen]))
}

// putIPUDP writes an IPv4+UDP header pair (no options, UDP checksum
// off) for a datagram with payloadLen bytes of payload.
func putIPUDP(b []byte, src, dst uint32, sport, dport uint16, ttl byte, id uint16) {
	b[0] = 0x45
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:4], ipLen+udpLen+payloadLen)
	binary.BigEndian.PutUint16(b[4:6], id)
	b[6], b[7] = 0, 0
	b[8] = ttl
	b[9] = protoUDP
	binary.BigEndian.PutUint32(b[12:16], src)
	binary.BigEndian.PutUint32(b[16:20], dst)
	setIPChecksum(b)
	u := b[ipLen:]
	binary.BigEndian.PutUint16(u[0:2], sport)
	binary.BigEndian.PutUint16(u[2:4], dport)
	binary.BigEndian.PutUint16(u[4:6], udpLen+payloadLen)
	u[6], u[7] = 0, 0
}

// putPayload fills a payload from its frame's sequence number: the
// number itself, then bytes derived from it, so any rewrite shows.
func putPayload(b []byte, seq uint64) {
	binary.BigEndian.PutUint64(b[0:8], seq)
	for k := 8; k < payloadLen; k++ {
		b[k] = byte(seq*7 + uint64(k)*13)
	}
}

// payloadOK reports whether a payload is exactly putPayload's for seq.
func payloadOK(b []byte, seq uint64) bool {
	if len(b) != payloadLen || binary.BigEndian.Uint64(b[0:8]) != seq {
		return false
	}
	for k := 8; k < payloadLen; k++ {
		if b[k] != byte(seq*7+uint64(k)*13) {
			return false
		}
	}
	return true
}
