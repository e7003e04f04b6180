package congest

import (
	"errors"
	"strings"
	"testing"

	"twoecss/internal/graph"
)

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	return g
}

func TestRunSimpleRelay(t *testing.T) {
	// Token travels along a path; rounds must equal path length.
	n := 10
	g := pathGraph(n)
	net := NewNetwork(g)
	arrived := -1
	sent := make([]bool, n)
	handler := func(v int, inbox []Msg) ([]Msg, bool) {
		if v == 0 && !sent[0] {
			sent[0] = true
			return []Msg{{EdgeID: 0, From: 0, Data: []Word{42}}}, false
		}
		for _, m := range inbox {
			if v == n-1 {
				arrived = int(m.Data[0])
				return nil, false
			}
			if !sent[v] {
				sent[v] = true
				return []Msg{{EdgeID: v, From: v, Data: m.Data}}, false
			}
		}
		return nil, false
	}
	if err := net.Run(handler, []int{0}, 100); err != nil {
		t.Fatal(err)
	}
	if arrived != 42 {
		t.Fatalf("token = %d", arrived)
	}
	// n-1 relay rounds plus the final round in which the endpoint
	// processes its inbox.
	if r := net.Stats().SimulatedRounds; r != int64(n) {
		t.Fatalf("rounds = %d, want %d", r, n)
	}
}

func TestRunBandwidthViolation(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g)
	net.WordsPerEdge = 2
	handler := func(v int, inbox []Msg) ([]Msg, bool) {
		if v == 0 {
			return []Msg{{EdgeID: 0, From: 0, Data: []Word{1, 2, 3}}}, false
		}
		return nil, false
	}
	err := net.Run(handler, []int{0}, 10)
	var bw *ErrBandwidth
	if !errors.As(err, &bw) {
		t.Fatalf("err = %v, want ErrBandwidth", err)
	}
}

func TestRunRejectsForgery(t *testing.T) {
	g := pathGraph(3)
	net := NewNetwork(g)
	handler := func(v int, inbox []Msg) ([]Msg, bool) {
		if v == 0 {
			return []Msg{{EdgeID: 0, From: 1, Data: []Word{1}}}, false
		}
		return nil, false
	}
	if err := net.Run(handler, []int{0}, 10); err == nil {
		t.Fatal("forged sender accepted")
	}
	handler2 := func(v int, inbox []Msg) ([]Msg, bool) {
		if v == 0 {
			return []Msg{{EdgeID: 1, From: 0, Data: []Word{1}}}, false
		}
		return nil, false
	}
	if err := net.Run(handler2, []int{0}, 10); err == nil {
		t.Fatal("non-incident edge accepted")
	}
}

func TestRunMaxRounds(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g)
	handler := func(v int, inbox []Msg) ([]Msg, bool) { return nil, true } // spin forever
	if err := net.Run(handler, nil, 5); err == nil {
		t.Fatal("non-terminating program accepted")
	}
}

func TestChargeAndPhases(t *testing.T) {
	net := NewNetwork(pathGraph(2))
	net.BeginPhase("setup")
	if err := net.Charge(17, "test"); err != nil {
		t.Fatal(err)
	}
	net.EndPhase()
	if err := net.Charge(-1, "bad"); err == nil {
		t.Fatal("negative charge accepted")
	}
	ph := net.Phases()
	if len(ph) != 1 || ph[0].Name != "setup" || ph[0].Charged != 17 {
		t.Fatalf("phases = %+v", ph)
	}
	if net.Stats().TotalRounds() != 17 {
		t.Fatalf("total = %d", net.Stats().TotalRounds())
	}
}

func TestAnalyticBills(t *testing.T) {
	if KuttenPelegMSTRounds(100, 5) <= 0 || LCALabelRounds(100, 5) <= 0 ||
		SegmentDecompositionRounds(100, 5) <= 0 || LayeringRounds(100, 5) <= 0 {
		t.Fatal("bills must be positive")
	}
	// sqrt scaling: quadrupling n roughly doubles the sqrt term.
	a := KuttenPelegMSTRounds(100, 0)
	b := KuttenPelegMSTRounds(400, 0)
	if b < 3*a/2 || b > 3*a {
		t.Fatalf("sqrt scaling off: %d -> %d", a, b)
	}
}

// gossipRun runs a seeded gossip workload of the given length on net, with
// maxRounds as Run's limit, and returns the Stats it added and every node's
// final state. Each
// node folds its inbox into an order-sensitive hash, so any change in inbox
// order or content changes the state; senders use recycled OutBuf
// envelopes.
func gossipRun(net *Network, seed int64, rounds int, maxRounds int64) (Stats, []int64, error) {
	g := net.G
	state := make([]int64, g.N)
	left := make([]int, g.N)
	for v := range left {
		left[v] = rounds
		state[v] = (int64(v)+seed)*2654435761 + 1
	}
	handler := func(v int, inbox []Msg) ([]Msg, bool) {
		for _, m := range inbox {
			// Order-sensitive mix: swapping two inbox entries changes
			// the result.
			state[v] = state[v]*1000003 + m.Data[0]*31 + int64(m.From)
		}
		if left[v] == 0 {
			return nil, false
		}
		left[v]--
		out := net.OutBuf(v)
		for _, id := range g.Incident(v) {
			out = append(out, Msg{EdgeID: id, From: v, Data: []Word{state[v] & 0xffff}})
		}
		return out, left[v] > 0
	}
	before := net.Stats()
	err := net.Run(handler, nil, maxRounds)
	after := net.Stats()
	after.SimulatedRounds -= before.SimulatedRounds
	after.Messages -= before.Messages
	after.Words -= before.Words
	return after, state, err
}

// TestRunReuseDeterminism guards Network reuse: a Run on a recycled Network
// — scratch buffers and OutBuf envelopes warmed by an earlier Run that was
// aborted with messages still in flight — must produce the same Stats and
// the same order-sensitive node state as a Run on a fresh Network.
func TestRunReuseDeterminism(t *testing.T) {
	const rounds = 40
	g := graph.RandomSpanningTreePlus(300, 600, graph.DefaultGenConfig(7))
	freshStats, freshState, err := gossipRun(NewNetwork(g), 1, rounds, rounds+10)
	if err != nil {
		t.Fatal(err)
	}
	if freshStats.Messages == 0 {
		t.Fatal("workload sent no messages")
	}

	net := NewNetwork(g)
	// The warm-up uses another seed and stops at the round limit, leaving
	// undelivered inboxes, scheduled nodes and grown envelopes behind.
	if _, _, err := gossipRun(net, 2, rounds, rounds/2); err == nil {
		t.Fatal("warm-up Run did not hit its round limit")
	}
	net.ResetAccounting()
	reStats, reState, err := gossipRun(net, 1, rounds, rounds+10)
	if err != nil {
		t.Fatal(err)
	}
	if freshStats != reStats {
		t.Fatalf("stats diverge:\n fresh    %+v\n recycled %+v", freshStats, reStats)
	}
	for v := range freshState {
		if freshState[v] != reState[v] {
			t.Fatalf("node %d state diverges: %d vs %d", v, freshState[v], reState[v])
		}
	}
}

// TestRunErrorOrder pins which error Run reports when several scheduled
// nodes misbehave in the same round: the one with the smallest (sender,
// outbox index), and a validation error (forged sender, bad or non-incident
// edge) before any bandwidth error.
func TestRunErrorOrder(t *testing.T) {
	const n = 100
	forged := func(v int) []Msg { return []Msg{{EdgeID: v, From: v + 1, Data: []Word{1}}} }
	overrun := func(v int) []Msg { return []Msg{{EdgeID: v, From: v, Data: make([]Word, 99)}} }
	for _, tc := range []struct {
		name    string
		bad     map[int]func(v int) []Msg // outbox of each misbehaving node
		wantSub string
	}{
		{
			name:    "forged-sender",
			bad:     map[int]func(int) []Msg{10: forged, 90: forged},
			wantSub: "node 10 forged sender",
		},
		{
			name:    "bandwidth",
			bad:     map[int]func(int) []Msg{20: overrun, 70: overrun},
			wantSub: "99 words from vertex 20",
		},
		{
			name:    "validation-before-bandwidth",
			bad:     map[int]func(int) []Msg{20: overrun, 90: forged},
			wantSub: "node 90 forged sender",
		},
	} {
		net := NewNetwork(pathGraph(n))
		handler := func(v int, inbox []Msg) ([]Msg, bool) {
			if f := tc.bad[v]; f != nil {
				return f(v), false
			}
			return nil, false
		}
		err := net.Run(handler, nil, 10)
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: got %v, want error mentioning %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestRunInboxOrder pins the inbox order contract: (From, EdgeID)
// ascending, whatever order the senders' outboxes list their messages in.
func TestRunInboxOrder(t *testing.T) {
	g := graph.New(3)
	e0 := g.MustAddEdge(0, 2, 1)
	e1 := g.MustAddEdge(0, 2, 1) // parallel to e0
	e2 := g.MustAddEdge(1, 2, 1)
	net := NewNetwork(g)
	var got []Msg
	handler := func(v int, inbox []Msg) ([]Msg, bool) {
		switch v {
		case 0:
			return []Msg{{EdgeID: e1, From: 0}, {EdgeID: e0, From: 0}}, false
		case 1:
			return []Msg{{EdgeID: e2, From: 1}}, false
		}
		got = append(got, inbox...)
		return nil, false
	}
	if err := net.Run(handler, []int{1, 0}, 10); err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, e0}, {0, e1}, {1, e2}}
	if len(got) != len(want) {
		t.Fatalf("inbox %+v, want %v", got, want)
	}
	for i, m := range got {
		if m.From != want[i][0] || m.EdgeID != want[i][1] {
			t.Fatalf("inbox %+v, want (From, EdgeID) order %v", got, want)
		}
	}
}

// TestRunRecyclesAcrossCalls checks that repeated Runs on one Network reuse
// engine buffers — a warmed-up Run must be allocation-free — and
// keep accumulating stats correctly.
func TestRunRecyclesAcrossCalls(t *testing.T) {
	g := pathGraph(8)
	net := NewNetwork(g)
	payload := []Word{9}
	sent := false
	runs := 0
	handler := func(v int, inbox []Msg) ([]Msg, bool) {
		if v == 0 && !sent {
			sent = true
			return append(net.OutBuf(v), Msg{EdgeID: 0, From: 0, Data: payload}), false
		}
		return nil, false
	}
	run := func() {
		sent = false
		runs++
		if err := net.Run(handler, []int{0}, 100); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up the scratch buffers
	// Steady state: the per-Run engine state lives on the stack, so a
	// warmed-up Run allocates nothing.
	if allocs := testing.AllocsPerRun(5, run); allocs > 0 {
		t.Fatalf("steady-state Run allocated %.1f objects, want 0", allocs)
	}
	if got := net.Stats().Messages; got != int64(runs) {
		t.Fatalf("messages = %d, want %d", got, runs)
	}
	if got := net.Stats().SimulatedRounds; got != int64(2*runs) {
		t.Fatalf("rounds = %d, want %d", got, 2*runs)
	}
}

func TestIsqrt(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{-5, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 2},
		{5, 3},
		{8, 3},
		{9, 3},
		{10, 4},
		{15, 4},
		{16, 4},
		{17, 5},
		{24, 5},
		{25, 5},
		{26, 6},
		{1 << 20, 1 << 10},
		{(1 << 20) + 1, (1 << 10) + 1},
		{(1 << 31) - 1, 46341},
		{1 << 62, 1 << 31},
		{(1 << 62) - 1, 1 << 31},
		{(1 << 62) + 1, (1 << 31) + 1},
	}
	for _, c := range cases {
		if got := isqrt(c.n); got != c.want {
			t.Errorf("isqrt(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// Exhaustive cross-check against the seed's counting loop on a dense
	// small range plus the perfect squares around every power of two.
	slow := func(n int) int64 {
		if n <= 0 {
			return 0
		}
		x := int64(1)
		for x*x < int64(n) {
			x++
		}
		return x
	}
	for n := 0; n <= 1<<12; n++ {
		if got, want := isqrt(n), slow(n); got != want {
			t.Fatalf("isqrt(%d) = %d, want %d", n, got, want)
		}
	}
	for k := 1; k <= 30; k++ {
		r := int64(1) << k
		for _, n := range []int64{r*r - 1, r * r, r*r + 1} {
			want := r
			if n > r*r {
				want = r + 1
			}
			if n == r*r-1 {
				want = r
			}
			if got := isqrt(int(n)); got != want {
				t.Fatalf("isqrt(%d) = %d, want %d", n, got, want)
			}
		}
	}
}
