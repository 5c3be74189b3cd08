package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
)

// outcome is the deterministic part of a campaign result: what every
// run of a workload must reproduce exactly. Wall-clock fields and the
// recording's bytes are left out (Encode writes the wall-clock GoodNS,
// so two recordings of one workload differ in bytes).
type outcome struct {
	Faults   int
	Detected int
	Work     int64 // total work units, good plus faulty
	// Digest hashes every fault's (detected, pattern, setting, hard)
	// in universe order.
	Digest uint64
}

func (o outcome) String() string {
	return fmt.Sprintf("%d/%d detected, %d work units, digest %#016x", o.Detected, o.Faults, o.Work, o.Digest)
}

func digestOf(n int, detection func(i int) (core.Detection, bool)) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		var b [18]byte
		if d, ok := detection(i); ok {
			b[0] = 1
			binary.LittleEndian.PutUint64(b[1:], uint64(d.Pattern))
			binary.LittleEndian.PutUint64(b[9:], uint64(d.Setting))
			if d.Hard {
				b[17] = 1
			}
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func summarize(r *campaign.Result) outcome {
	return outcome{
		Faults:   r.Run.NumFaults,
		Detected: r.Run.Detected,
		Work:     r.Run.TotalWork(),
		Digest: digestOf(len(r.PerFault), func(i int) (core.Detection, bool) {
			return r.PerFault[i].Detection, r.PerFault[i].Detected
		}),
	}
}

func summarizeSim(s *core.Simulator, r *core.Result) outcome {
	return outcome{
		Faults:   r.NumFaults,
		Detected: r.Detected,
		Work:     r.TotalWork(),
		Digest:   digestOf(s.NumFaults(), s.Detected),
	}
}

// gate holds what every run's outcome must equal.
type gate struct {
	want []outcome
}

func (g *gate) check(got outcome) error {
	for _, w := range g.want {
		if got != w {
			return fmt.Errorf("result mismatch: got %v, want %v", got, w)
		}
	}
	return nil
}
