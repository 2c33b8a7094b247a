package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"virtualwire/internal/core"
	"virtualwire/internal/packet"
)

// TestInitDistributionMultiChunk forces the gob-encoded program over the
// 1000-byte chunk size so INIT really fragments and reassembles.
func TestInitDistributionMultiChunk(t *testing.T) {
	var b strings.Builder
	b.WriteString(header(2, 40)) // 40 filters inflate the program well past one chunk
	b.WriteString("SCENARIO big\n")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, "C%d: (p%d, node1, node2, RECV)\n", i, i%40)
	}
	b.WriteString("(TRUE) >> ")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, "ENABLE_CNTR( C%d ); ", i)
	}
	b.WriteString("\nEND")
	r := newRig(t, 31, 2, b.String())
	r.launch(t)
	for i, e := range r.engines {
		if !e.Active() {
			t.Fatalf("engine %d not active after multi-chunk INIT", i)
		}
	}
	// And the scenario still counts correctly.
	r.bindSink(t, 1, 7003)
	r.sendUDP(t, 0, 1, 7003, []byte("x"))
	r.run(t, 50*time.Millisecond)
	if v, _ := r.engines[1].CounterValueByName("C3"); v != 1 {
		t.Errorf("C3 = %d after multi-chunk init", v)
	}
}

// TestCascadeLoopDetected compiles a script whose actions oscillate a
// counter, which would cascade forever; the engine must cut the loop and
// report a runtime error instead of hanging.
func TestCascadeLoopDetected(t *testing.T) {
	script := header(2, 1) + `
SCENARIO looper
C: (p0, node1, node2, RECV)
X: (node2)
(TRUE) >> ENABLE_CNTR( C );
((X = 0) && (C = 1)) >> INCR_CNTR( X, 1 );
((X = 1) && (C = 1)) >> RESET_CNTR( X );
END`
	r := newRig(t, 32, 2, script)
	r.bindSink(t, 1, 7000)
	r.launch(t)
	r.sendUDP(t, 0, 1, 7000, []byte("x"))
	r.run(t, time.Second)
	res := r.ctl.Result()
	if len(res.Errors) == 0 {
		t.Fatal("oscillating action cycle not reported")
	}
	found := false
	for _, e := range res.Errors {
		if strings.Contains(e.Text, "cascade depth") {
			found = true
		}
	}
	if !found {
		t.Errorf("errors do not mention the cascade: %v", res.Errors)
	}
}

// TestReorderArmedRemotely fires a REORDER whose executor is a different
// node from the one whose counter triggers it.
func TestReorderArmedRemotely(t *testing.T) {
	script := header(2, 2) + `
SCENARIO remotereorder
TRIG: (p1, node2, node1, RECV)
(TRUE) >> ENABLE_CNTR( TRIG );
((TRIG = 1)) >> REORDER( p0, node1, node2, RECV, 3, [2 3 1] );
END`
	r := newRig(t, 33, 2, script)
	sock, _ := r.hosts[1].UDP.Bind(7000)
	var order []byte
	sock.OnDatagram = func(_ packet.IP, _ uint16, p []byte) { order = append(order, p[0]) }
	r.bindSink(t, 0, 7001)
	r.launch(t)
	// Trigger: node2 -> node1 on p1; the REORDER arms at node2 (RECV
	// executor for p0 node1->node2).
	r.sendUDP(t, 1, 0, 7001, []byte("t"))
	r.run(t, 50*time.Millisecond)
	for i := byte(1); i <= 3; i++ {
		r.sendUDP(t, 0, 1, 7000, []byte{i})
		r.run(t, 10*time.Millisecond)
	}
	r.run(t, 200*time.Millisecond)
	want := []byte{2, 3, 1}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestDelayPreservesRelativeOrderOfOthers: a delayed packet must not
// block packets of other types.
func TestDelayDoesNotBlockOtherTraffic(t *testing.T) {
	script := header(2, 2) + `
SCENARIO delayp0
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C = 1)) >> DELAY( p0, node1, node2, RECV, 30ms );
END`
	r := newRig(t, 35, 2, script)
	var arrivals []string
	s0, _ := r.hosts[1].UDP.Bind(7000)
	s0.OnDatagram = func(packet.IP, uint16, []byte) { arrivals = append(arrivals, "p0") }
	s1, _ := r.hosts[1].UDP.Bind(7001)
	s1.OnDatagram = func(packet.IP, uint16, []byte) { arrivals = append(arrivals, "p1") }
	r.launch(t)
	r.sendUDP(t, 0, 1, 7000, []byte("delayed"))
	r.run(t, time.Millisecond)
	r.sendUDP(t, 0, 1, 7001, []byte("fast"))
	r.run(t, 200*time.Millisecond)
	if len(arrivals) != 2 || arrivals[0] != "p1" || arrivals[1] != "p0" {
		t.Errorf("arrivals = %v, want p1 before delayed p0", arrivals)
	}
}

// TestEngineStatsAccumulate sanity-checks the stat counters the
// experiments rely on.
func TestEngineStatsAccumulate(t *testing.T) {
	script := header(2, 2) + `
SCENARIO stats
C: (p0, node1, node2, RECV)
D: (node2)
(TRUE) >> ENABLE_CNTR( C );
((C = 1)) >> RESET_CNTR( C ); INCR_CNTR( D, 1 );
END`
	r := newRig(t, 36, 2, script)
	r.bindSink(t, 1, 7000)
	r.launch(t)
	const n = 10
	for i := 0; i < n; i++ {
		r.sendUDP(t, 0, 1, 7000, []byte("x"))
		r.run(t, 5*time.Millisecond)
	}
	st := r.engines[1].Stats
	if st.PacketsMatched < n {
		t.Errorf("PacketsMatched = %d", st.PacketsMatched)
	}
	// Each packet: C++ (1), RESET C (1), INCR D (1) = 3 updates.
	if st.CounterUpdates < 3*n {
		t.Errorf("CounterUpdates = %d, want >= %d", st.CounterUpdates, 3*n)
	}
	if st.ActionsFired < 2*n {
		t.Errorf("ActionsFired = %d", st.ActionsFired)
	}
	if v, _ := r.engines[1].CounterValueByName("D"); v != n {
		t.Errorf("D = %d", v)
	}
}

var _ = core.DirSend // keep the core import live for the typed constants

// TestOrNotConditions exercises the ||, ! expression paths end to end.
func TestOrNotConditions(t *testing.T) {
	script := header(2, 2) + `
SCENARIO ornot
A: (p0, node1, node2, RECV)
B: (p1, node1, node2, RECV)
D: (node2)
E: (node2)
(TRUE) >> ENABLE_CNTR( A ); ENABLE_CNTR( B );
((A = 1) || (B = 1)) >> RESET_CNTR( A ); RESET_CNTR( B ); INCR_CNTR( D, 1 );
(!(E = 0) && (A = 2)) >> INCR_CNTR( E, 1 );
END`
	r := newRig(t, 44, 2, script)
	r.bindSink(t, 1, 7000)
	r.bindSink(t, 1, 7001)
	r.launch(t)
	r.sendUDP(t, 0, 1, 7000, []byte("a")) // A=1 -> OR fires, resets
	r.run(t, 10*time.Millisecond)
	r.sendUDP(t, 0, 1, 7001, []byte("b")) // B=1 -> OR fires again
	r.run(t, 10*time.Millisecond)
	if v, _ := r.engines[1].CounterValueByName("D"); v != 2 {
		t.Errorf("D = %d, want 2 (both OR arms fired)", v)
	}
	// The NOT rule never fires: E stays 0, so !(E=0) is false.
	if v, _ := r.engines[1].CounterValueByName("E"); v != 0 {
		t.Errorf("E = %d, want 0", v)
	}
}

// TestReorderDefaultReverse omits the permutation: the window must be
// released in reverse order.
func TestReorderDefaultReverse(t *testing.T) {
	script := header(2, 1) + `
SCENARIO revord
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C = 1)) >> REORDER( p0, node1, node2, RECV, 3 );
END`
	r := newRig(t, 45, 2, script)
	sock, _ := r.hosts[1].UDP.Bind(7000)
	var order []byte
	sock.OnDatagram = func(_ packet.IP, _ uint16, p []byte) { order = append(order, p[0]) }
	r.launch(t)
	for i := byte(1); i <= 3; i++ {
		r.sendUDP(t, 0, 1, 7000, []byte{i})
		r.run(t, 5*time.Millisecond)
	}
	r.run(t, 100*time.Millisecond)
	want := []byte{3, 2, 1}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (default reverse)", order, want)
		}
	}
}
