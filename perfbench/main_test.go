package main

import (
	"net/http/httptest"
	"sync/atomic"
	"testing"

	rio "repro/internal/io"
	"repro/internal/mgmt"
)

// TestSmoke runs each workload briefly, untraced and traced, and checks
// that it is correct, fails nothing and reports every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			tl, ms, err := run(runOpts{seed: 7, seconds: 1, trace: trace, maxSpans: 1000})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(tl.broken) > 0 || tl.failed != 0 || tl.attempted == 0 {
				t.Fatalf("%s: attempted %d failed %d broken %v reasons %v", name, tl.attempted, tl.failed, tl.broken, tl.reasons)
			}
			if missing := ms.missing(trace); len(missing) > 0 {
				t.Errorf("%s (trace %v): missing metrics %v", name, trace, missing)
			}
			if !trace {
				for k, m := range ms.endToEnd {
					if !(m.Value > 0) {
						t.Errorf("%s: %s = %v, want > 0", name, k, m.Value)
					}
				}
			}
		}
	}
}

// routerFixture is a forwarding harness with no router behind it: the
// test plays the router, handing the checker outputs it builds itself.
type routerFixture struct {
	t   *testing.T
	h   *closedLoop
	buf [][]byte
}

// inject takes the harness's next frame of the wanted kind off
// interface 0.
func (fx *routerFixture) inject(kind uint8) []byte {
	for k := 0; k < 1<<16; k++ {
		if fx.h.recv(0, fx.buf[:1]) != 1 {
			fx.t.Fatal("harness handed off nothing")
		}
		f := append([]byte(nil), fx.buf[0]...)
		seq := uint64(fx.h.seq - 1)
		sl := &fx.h.ring[seq%ringSize]
		if sl.kind == kind {
			return f
		}
		if sl.kind != kindDeny {
			// Retire frames of other kinds so nothing stays in flight.
			fx.h.complete(sl, now())
		}
	}
	fx.t.Fatalf("no frame of kind %d in the schedule", kind)
	return nil
}

// forward is what a correct router sends for an injected frame, and on
// which interface.
func (fx *routerFixture) forward(f []byte) (int, []byte) {
	seq := uint64(fx.h.seq - 1)
	fl := &fx.h.flows[fx.h.ring[seq%ringSize].flow]
	j := int(fl.out)
	if j < 0 {
		j = nIngress // a denied flow's destination network
	}
	out := append([]byte(nil), f...)
	p := plan(j)
	copy(out[0:6], p.hostM[:])
	copy(out[6:12], p.routerMAC[:])
	out[ethLen+8]--
	setIPChecksum(out[ethLen : ethLen+ipLen])
	return j, out
}

func (fx *routerFixture) expect(what string, fails int64, fn func()) {
	before := fx.h.tally.failed
	fn()
	if got := fx.h.tally.failed - before; got != fails {
		fx.t.Errorf("%s: counted %d failed operations, want %d (%v)", what, got, fails, fx.h.tally.reasons)
	}
}

func newFixture(t *testing.T, spec routerSpec) *routerFixture {
	spec.ttl1Percent = 0
	return &routerFixture{t: t, h: newClosedLoop(&spec, 3), buf: make([][]byte, 1)}
}

// TestCheckerCountsWrongOutputs feeds each workload's checker outputs
// known to be wrong and asserts each is counted as a failed operation.
func TestCheckerCountsWrongOutputs(t *testing.T) {
	fx := newFixture(t, ipr8Spec)
	send := func(j int, f []byte) { fx.h.send(j, [][]byte{f}) }

	fx.expect("correct frame", 0, func() { send(fx.forward(fx.inject(kindFwd))) })
	fx.expect("unchanged TTL", 1, func() {
		j, out := fx.forward(fx.inject(kindFwd))
		out[ethLen+8]++
		setIPChecksum(out[ethLen : ethLen+ipLen])
		send(j, out)
	})
	fx.expect("bad IP checksum", 1, func() {
		j, out := fx.forward(fx.inject(kindFwd))
		out[ethLen+10] ^= 0x40
		send(j, out)
	})
	fx.expect("wrong egress device", 1, func() {
		j, out := fx.forward(fx.inject(kindFwd))
		send(nIngress+(j-nIngress+1)%(nIfs-nIngress), out)
	})
	fx.expect("duplicated frame", 1, func() {
		j, out := fx.forward(fx.inject(kindFwd))
		send(j, out)
		send(j, out)
	})
	fx.expect("missing frame", 1, func() {
		fx.inject(kindFwd)
		fx.h.lost()
	})

	small := fw5kSpec
	small.rules, small.admitFlows, small.denyFlows, small.schedLen = 200, 512, 64, 4096
	fw := newFixture(t, small)
	fw.expect("denied frame at egress", 1, func() {
		j, out := fw.forward(fw.inject(kindDeny))
		fw.h.send(j, [][]byte{out})
	})

	c := newChurnRun(&churnSpec)
	c.genStart = now() - 1e9
	dev := func(tenant, d string) rio.Backend { return c.device(tenant, d).(*rio.Device).Backend() }
	buf := make([][]byte, 1)
	churnExpect := func(what string, fails int64, fn func()) {
		before := c.frames.failed
		fn()
		if got := c.frames.failed - before; got != fails {
			t.Errorf("%s: counted %d failed operations, want %d (%v)", what, got, fails, c.frames.reasons)
		}
	}
	churnExpect("own tenant's device", 0, func() {
		dev("t000", "eth0").Recv(buf)
		dev("t000", "eth1").Send([][]byte{append([]byte(nil), buf[0]...)})
	})
	churnExpect("another tenant's device", 1, func() {
		dev("t000", "eth0").Recv(buf)
		dev("t001", "eth1").Send([][]byte{append([]byte(nil), buf[0]...)})
	})

	plane, err := mgmt.NewPlane(mgmt.Options{Workers: 1, Burst: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()
	cl := &ctrlClient{c: c, base: srv.URL, http: srv.Client(), plane: plane, ops: map[string]*opStat{},
		handlerNS: new(atomic.Int64), model: fleetModel{template: map[string]int{}, swaps: map[string]int{}}}
	if cl.op("swap", "PUT", "/tenants/absent", templateText(0), false, nil) || cl.tally.failed != 1 {
		t.Errorf("control op answered with an HTTP error: counted %d failed, want 1", cl.tally.failed)
	}
}
