package core_test

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/logic"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
	"fmossim/internal/testnet"
)

// ram64Batches replays RAM64 fault batches. The mixed batch (node and
// transistor stuck faults, the bit-line shorts and their carriers'
// stuck-closed partners) runs over the first 60 patterns of sequence 1,
// short enough that many faults stay undetected and keep divergence
// records; it runs untrimmed and trimmed. The shard batch, 32 node
// faults over the whole sequence with trim on, is detected early, so its
// idle tail settings are skipped and leave PerSetting rows that are zero
// apart from their coordinates, wall clock included.
func ram64Batches(t *testing.T) map[string]*core.BatchResult {
	m := ram.RAM64()
	full := march.Sequence1(m)
	short := *full
	short.Patterns = full.Patterns[:60]
	opts := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	tab := switchsim.NewTables(m.Net)

	nodeFaults := fault.NodeStuckFaults(m.Net, fault.Options{})
	mixed := append([]fault.Fault(nil), nodeFaults...)
	mixed = append(mixed, fault.TransistorStuckFaults(m.Net, fault.Options{})[:64]...)
	mixed = append(mixed, fault.BridgeFaults(m.BitlineShorts)...)
	for _, tid := range m.BitlineShorts {
		mixed = append(mixed, fault.Fault{Kind: fault.TransStuckClosed, Trans: tid})
	}

	out := map[string]*core.BatchResult{}
	for _, c := range []struct {
		name   string
		seq    *switchsim.Sequence
		faults []fault.Fault
		trim   bool
	}{
		{"ram64", &short, mixed, false},
		{"ram64-trim", &short, mixed, true},
		{"ram64-trim-shard", full, nodeFaults[:32], true},
	} {
		o := opts
		o.Trim = c.trim
		rec := core.Record(m.Net, c.seq, opts)
		br, err := core.RunBatch(context.Background(), tab, c.faults, rec, c.seq, o)
		if err != nil {
			t.Fatal(err)
		}
		out[c.name] = br
	}
	return out
}

// oscillatingBatch replays a seeded random transistor network whose
// fault universe includes circuits that hit the settle round limit.
func oscillatingBatch(t *testing.T) *core.BatchResult {
	rng := rand.New(rand.NewSource(9))
	tc := testnet.Soup(rng)
	faults := append(fault.NodeStuckFaults(tc.Net, fault.Options{}),
		fault.TransistorStuckFaults(tc.Net, fault.Options{})...)
	seq := tc.RandomSequence(rng, 8, 20)
	opts := core.Options{Observe: tc.Outputs, Workers: 1}
	rec := core.Record(tc.Net, seq, opts)
	br, err := core.RunBatch(context.Background(), switchsim.NewTables(tc.Net), faults, rec, seq, opts)
	if err != nil {
		t.Fatal(err)
	}
	return br
}

// edgeBatch exercises what replays rarely produce: dense rows with every
// field set (negative values included), nil versus empty at every level,
// and records at the extremes of the node-id range.
func edgeBatch() *core.BatchResult {
	return &core.BatchResult{
		NumFaults: 3,
		PerSetting: []core.SettingStats{
			{Pattern: 0, Setting: 0},
			{Pattern: 4, Setting: 7, ActiveCircuits: 3, LiveFaults: 2, GoodWork: 11, FaultWork: 1 << 40,
				GoodNS: 5, FaultNS: -9, LanesReplayed: 2, ScalarFallbacks: 1, AdoptedVics: 6, SolvedVics: 8,
				FaultsRetired: 1},
			{Pattern: -1, Setting: -1, LiveFaults: -3},
			{},
		},
		PerPattern: []core.PatternStats{
			{Pattern: 0, Name: "", Settings: 1},
			{Pattern: 9, Name: "w1@63", Settings: 6, LiveBefore: 3, LiveAfter: 1, Detected: 2, MaxActive: 3,
				GoodWork: 4, FaultWork: 5, GoodNS: 6, FaultNS: 7},
		},
		Detected: []bool{true, false, true},
		Detections: []core.Detection{
			{Pattern: 1, Setting: 5, Output: 17, Good: logic.Hi, Faulty: logic.Lo, Hard: true},
			{},
			{Pattern: 2, Setting: 0, Output: -4, Good: logic.X, Faulty: logic.Hi},
		},
		Oscillated: []bool{},
		Records: []map[netlist.NodeID]logic.Value{
			nil,
			{},
			{-1 << 31: logic.X, 0: logic.Lo, 1: logic.Hi, 1<<31 - 1: logic.X},
		},
	}
}

// TestBatchResultCodecRoundTrip: MarshalBinary/UnmarshalBinary is
// lossless — wall-clock fields and nil-versus-empty included — and
// deterministic: encoding equal results gives identical bytes.
func TestBatchResultCodecRoundTrip(t *testing.T) {
	cases := ram64Batches(t)
	cases["oscillating"] = oscillatingBatch(t)
	cases["edge"] = edgeBatch()
	cases["nil-records"] = &core.BatchResult{NumFaults: 2, Detected: []bool{false, false}}
	cases["empty-records"] = &core.BatchResult{Records: []map[netlist.NodeID]logic.Value{}}
	cases["zero"] = &core.BatchResult{}

	// The replayed batches must actually carry what the test claims to
	// cover.
	ram64, shard := cases["ram64"], cases["ram64-trim-shard"]
	for what, ok := range map[string]bool{
		"ram64: undetected faults":       slices.Contains(ram64.Detected, false),
		"ram64: divergence records":      slices.ContainsFunc(ram64.Records, func(m map[netlist.NodeID]logic.Value) bool { return len(m) > 0 }),
		"ram64: nil record maps":         slices.ContainsFunc(ram64.Records, func(m map[netlist.NodeID]logic.Value) bool { return m == nil }),
		"oscillating: oscillated faults": slices.Contains(cases["oscillating"].Oscillated, true),
		"ram64-trim-shard: all-zero settings": slices.ContainsFunc(shard.PerSetting, func(s core.SettingStats) bool {
			return s == core.SettingStats{Pattern: s.Pattern, Setting: s.Setting}
		}),
	} {
		if !ok {
			t.Errorf("no case covers %s", what)
		}
	}

	for name, br := range cases {
		t.Run(name, func(t *testing.T) {
			enc, err := br.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var got core.BatchResult
			if err := got.UnmarshalBinary(enc); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&got, br) {
				t.Fatalf("round trip differs:\ngot  %+v\nwant %+v", got, *br)
			}
			again, err := got.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, again) {
				t.Fatal("encoding the decoded result gave different bytes")
			}
			twice, _ := br.MarshalBinary()
			if !bytes.Equal(enc, twice) {
				t.Fatal("encoding the same result twice gave different bytes")
			}
			t.Logf("%d settings, %d faults: %d bytes", len(br.PerSetting), len(br.Detected), len(enc))
		})
	}
}

// TestBatchResultCodecRejects: malformed payloads are errors that leave
// the destination untouched.
func TestBatchResultCodecRejects(t *testing.T) {
	enc, err := edgeBatch().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	foreign := append([]byte("FMOSREC2"), enc[8:]...)
	cases := map[string][]byte{
		"empty":          nil,
		"foreign magic":  foreign,
		"truncated":      enc[:len(enc)-1],
		"trailing bytes": append(append([]byte(nil), enc...), 0),
		"huge length":    append([]byte("FMOSBAT1\x00"), 0xff, 0xff, 0xff, 0xff, 0x0f),
	}
	for name, data := range cases {
		want := &core.BatchResult{NumFaults: 7}
		got := *want
		if err := got.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if name == "foreign magic" && !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("%s: error %q does not name the magic", name, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("%s: failed decode modified the destination", name)
		}
	}
}

// FuzzDecodeBatchResult throws arbitrary bytes at the batch result
// decoder. Malformed input returns an error and never panics; lengths
// are checked against the remaining input before anything is allocated;
// anything that decodes re-encodes and re-decodes to the identical
// result, and re-encoding that gives the same bytes again.
//
// The seed corpus is a real RAM64 shard payload (32 faults over the
// first patterns of sequence 1) plus truncations and a foreign magic.
func FuzzDecodeBatchResult(f *testing.F) {
	m := ram.RAM64()
	seq := march.Sequence1(m)
	seq.Patterns = seq.Patterns[:8]
	opts := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	rec := core.Record(m.Net, seq, opts)
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})[:32]
	br, err := core.RunBatch(context.Background(), switchsim.NewTables(m.Net), faults, rec, seq, opts)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range []*core.BatchResult{br, edgeBatch()} {
		enc, err := b.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(enc[:len(enc)-1])
		mut := append([]byte(nil), enc...)
		copy(mut, "FMOSBAT9")
		f.Add(mut)
	}
	f.Add([]byte("FMOSBAT1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var got core.BatchResult
		if err := got.UnmarshalBinary(data); err != nil {
			return
		}
		enc, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encoding a decoded result: %v", err)
		}
		var again core.BatchResult
		if err := again.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-decoding a re-encoded result: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatal("decode ∘ encode is not idempotent on a decoded result")
		}
		if enc2, _ := again.MarshalBinary(); !bytes.Equal(enc, enc2) {
			t.Fatal("re-encoding a re-decoded result gave different bytes")
		}
	})
}
