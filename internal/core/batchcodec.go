// BatchResult's binary encoding: the payload a shard job ships back to a
// distributed campaign's coordinator. Campaign checkpoints keep the JSON
// form.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// batchMagic versions the BatchResult binary format.
const batchMagic = "FMOSBAT1"

// The format after the magic. Integers are zigzag varints unless marked
// u (uvarint). A slice or map length L is written as u(L+1), so 0 marks
// nil and nil-versus-empty survives the round trip.
//
//	NumFaults
//	PerSetting  length n, n × FaultNS, sparse rows of the other fields
//	PerPattern  length n, n × (u len(Name), Name, FaultNS), sparse rows
//	Detected    length n, n × byte 0/1
//	Detections  length n, n × (Pattern, Setting, Output, byte Good,
//	            byte Faulty, byte Hard)
//	Oscillated  length n, n × byte 0/1
//	Records     length n, n × (length m, m × (node, byte value)); nodes
//	            ascending, the first as a varint, the rest as u(gap-1)
//
// Sparse rows: every stats row is predicted from the row before it (see
// settingRows and patternRows). Rows equal to their prediction are not
// written. The table is u(count of rows written), then per written row
// u(rows skipped since the previous one), u(bitmask of the fields that
// differ from the prediction) and those fields' differences. An idle
// setting costs only its wall-clock FaultNS, so the payload grows with
// circuit activity, not with the length of the sequence.

// statsRows maps the rows of one stats table to fixed-width int64 field
// vectors (the dense wall-clock and name columns excluded) and predicts
// each row from the one before it. The row before the first is all zero.
type statsRows[T any] struct {
	width   int
	load    func(f []int64, r *T)
	store   func(r *T, f []int64)
	predict func(pred, prev []int64)
}

// settingRows predicts a setting as the next one of the same pattern,
// with the live count unchanged and no activity.
var settingRows = statsRows[SettingStats]{
	width: 12,
	load: func(f []int64, s *SettingStats) {
		f[0], f[1], f[2], f[3] = int64(s.Pattern), int64(s.Setting), int64(s.ActiveCircuits), int64(s.LiveFaults)
		f[4], f[5], f[6], f[7] = s.FaultWork, int64(s.LanesReplayed), s.AdoptedVics, s.SolvedVics
		f[8], f[9], f[10], f[11] = int64(s.FaultsRetired), int64(s.ScalarFallbacks), s.GoodWork, s.GoodNS
	},
	store: func(s *SettingStats, f []int64) {
		s.Pattern, s.Setting, s.ActiveCircuits, s.LiveFaults = int(f[0]), int(f[1]), int(f[2]), int(f[3])
		s.FaultWork, s.LanesReplayed, s.AdoptedVics, s.SolvedVics = f[4], int(f[5]), f[6], f[7]
		s.FaultsRetired, s.ScalarFallbacks, s.GoodWork, s.GoodNS = int(f[8]), int(f[9]), f[10], f[11]
	},
	predict: func(pred, prev []int64) {
		clear(pred)
		pred[0], pred[1], pred[3] = prev[0], prev[1]+1, prev[3]
	},
}

// patternRows predicts a pattern as the next one, as long as the one
// before, starting and ending at the previous pattern's live count, with
// no detections or activity.
var patternRows = statsRows[PatternStats]{
	width: 9,
	load: func(f []int64, p *PatternStats) {
		f[0], f[1], f[2], f[3] = int64(p.Pattern), int64(p.Settings), int64(p.LiveBefore), int64(p.LiveAfter)
		f[4], f[5], f[6], f[7], f[8] = int64(p.Detected), int64(p.MaxActive), p.FaultWork, p.GoodWork, p.GoodNS
	},
	store: func(p *PatternStats, f []int64) {
		p.Pattern, p.Settings, p.LiveBefore, p.LiveAfter = int(f[0]), int(f[1]), int(f[2]), int(f[3])
		p.Detected, p.MaxActive, p.FaultWork, p.GoodWork, p.GoodNS = int(f[4]), int(f[5]), f[6], f[7], f[8]
	},
	predict: func(pred, prev []int64) {
		clear(pred)
		pred[0], pred[1], pred[2], pred[3] = prev[0]+1, prev[1], prev[3], prev[3]
	},
}

// MarshalBinary encodes the batch result in the versioned binary format.
// The encoding is lossless (wall-clock fields and nil-versus-empty
// included) and deterministic: Records entries are written in ascending
// node order, so equal results encode to identical bytes.
func (br *BatchResult) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 64+3*len(br.PerSetting)+12*len(br.PerPattern)+16*len(br.Detected))
	b = append(b, batchMagic...)
	b = binary.AppendVarint(b, int64(br.NumFaults))
	b = appendSlice(b, br.PerSetting, func(b []byte, s *SettingStats) []byte {
		return binary.AppendVarint(b, s.FaultNS)
	})
	b = settingRows.appendRows(b, br.PerSetting)
	b = appendSlice(b, br.PerPattern, func(b []byte, p *PatternStats) []byte {
		b = binary.AppendUvarint(b, uint64(len(p.Name)))
		b = append(b, p.Name...)
		return binary.AppendVarint(b, p.FaultNS)
	})
	b = patternRows.appendRows(b, br.PerPattern)
	b = appendSlice(b, br.Detected, appendBool)
	b = appendSlice(b, br.Detections, func(b []byte, det *Detection) []byte {
		b = binary.AppendVarint(b, int64(det.Pattern))
		b = binary.AppendVarint(b, int64(det.Setting))
		b = binary.AppendVarint(b, int64(det.Output))
		b = append(b, byte(det.Good), byte(det.Faulty))
		return appendBool(b, &det.Hard)
	})
	b = appendSlice(b, br.Oscillated, appendBool)
	b = appendSlice(b, br.Records, appendRecords)
	return b, nil
}

// UnmarshalBinary decodes a batch result written by MarshalBinary. Input
// that is not a complete, well-formed encoding (a foreign magic,
// truncation, trailing bytes, out-of-range values) returns an error and
// leaves br unchanged; no partial result is ever stored.
func (br *BatchResult) UnmarshalBinary(data []byte) error {
	if len(data) < len(batchMagic) || string(data[:len(batchMagic)]) != batchMagic {
		return fmt.Errorf("core: not a batch result (bad magic %q)", data[:min(len(data), len(batchMagic))])
	}
	d := &batchDecoder{buf: data[len(batchMagic):]}
	var out BatchResult
	out.NumFaults = int(d.varint())
	out.PerSetting = readSlice(d, 1, func(s *SettingStats) { s.FaultNS = d.varint() })
	settingRows.readRows(d, out.PerSetting)
	out.PerPattern = readSlice(d, 2, func(p *PatternStats) {
		p.Name = d.string()
		p.FaultNS = d.varint()
	})
	patternRows.readRows(d, out.PerPattern)
	out.Detected = readSlice(d, 1, func(v *bool) { *v = d.bool() })
	out.Detections = readSlice(d, 6, func(det *Detection) {
		det.Pattern = int(d.varint())
		det.Setting = int(d.varint())
		det.Output = d.node()
		det.Good = d.value()
		det.Faulty = d.value()
		det.Hard = d.bool()
	})
	out.Oscillated = readSlice(d, 1, func(v *bool) { *v = d.bool() })
	out.Records = readSlice(d, 1, func(m *map[netlist.NodeID]logic.Value) { *m = d.records() })
	if d.err == nil && len(d.buf) > 0 {
		d.fail("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return fmt.Errorf("core: decoding batch result: %w", d.err)
	}
	*br = out
	return nil
}

func appendSlice[T any](b []byte, s []T, elem func([]byte, *T) []byte) []byte {
	if s == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(s))+1)
	for i := range s {
		b = elem(b, &s[i])
	}
	return b
}

func appendBool(b []byte, v *bool) []byte {
	if *v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendRecords(b []byte, m *map[netlist.NodeID]logic.Value) []byte {
	if *m == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(*m))+1)
	nodes := make([]netlist.NodeID, 0, len(*m))
	for n := range *m {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	for i, n := range nodes {
		if i == 0 {
			b = binary.AppendVarint(b, int64(n))
		} else {
			b = binary.AppendUvarint(b, uint64(int64(n)-int64(nodes[i-1])-1))
		}
		b = append(b, byte((*m)[n]))
	}
	return b
}

// appendRows writes the sparse rows of a stats table.
func (t *statsRows[T]) appendRows(b []byte, rows []T) []byte {
	prev, pred, cur := make([]int64, t.width), make([]int64, t.width), make([]int64, t.width)
	var body []byte
	written, last := 0, -1
	for i := range rows {
		t.predict(pred, prev)
		t.load(cur, &rows[i])
		var mask uint64
		for j := range cur {
			if cur[j] != pred[j] {
				mask |= 1 << j
			}
		}
		if mask != 0 {
			body = binary.AppendUvarint(body, uint64(i-last-1))
			body = binary.AppendUvarint(body, mask)
			for j := range cur {
				if mask&(1<<j) != 0 {
					body = binary.AppendVarint(body, cur[j]-pred[j])
				}
			}
			written, last = written+1, i
		}
		prev, cur = cur, prev
	}
	b = binary.AppendUvarint(b, uint64(written))
	return append(b, body...)
}

// readRows fills the non-dense fields of rows from their sparse
// encoding.
func (t *statsRows[T]) readRows(d *batchDecoder, rows []T) {
	prev, cur := make([]int64, t.width), make([]int64, t.width)
	left := d.uvarint()
	if d.err == nil && left > uint64(len(rows)) {
		d.fail("%d sparse rows in a table of %d", left, len(rows))
	}
	next := -1
	advance := func(last int) {
		gap := d.uvarint()
		if d.err == nil && gap >= uint64(len(rows)-last-1) {
			d.fail("sparse row gap %d overruns a table of %d", gap, len(rows))
		}
		next = last + 1 + int(gap)
	}
	if left > 0 {
		advance(-1)
	}
	for i := 0; i < len(rows) && d.err == nil; i++ {
		t.predict(cur, prev)
		if i == next {
			mask := d.uvarint()
			if mask >= 1<<t.width {
				d.fail("sparse row field mask %#x out of range", mask)
			}
			for j := range cur {
				if mask&(1<<j) != 0 {
					cur[j] += d.varint()
				}
			}
			if left--; left > 0 {
				advance(i)
			}
		}
		t.store(&rows[i], cur)
		prev, cur = cur, prev
	}
}

// readSlice decodes a slice written by appendSlice. Every element takes
// at least minBytes of the input, which bounds the length before the
// slice is allocated.
func readSlice[T any](d *batchDecoder, minBytes int, elem func(*T)) []T {
	n, isNil := d.length(minBytes)
	if isNil {
		return nil
	}
	out := make([]T, n)
	for i := 0; i < n && d.err == nil; i++ {
		elem(&out[i])
	}
	return out
}

// batchDecoder reads the format from a byte slice with a sticky error.
type batchDecoder struct {
	buf []byte
	err error
}

func (d *batchDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *batchDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated or overflowing varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *batchDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("truncated or overflowing varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *batchDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.fail("truncated")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *batchDecoder) bool() bool {
	b := d.byte()
	if b > 1 {
		d.fail("bad bool byte %d", b)
	}
	return b == 1
}

func (d *batchDecoder) value() logic.Value {
	v := logic.Value(d.byte())
	if v > logic.X {
		d.fail("bad logic value %d", v)
	}
	return v
}

func (d *batchDecoder) node() netlist.NodeID {
	v := d.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("node id %d out of range", v)
	}
	return netlist.NodeID(v)
}

func (d *batchDecoder) string() string {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.fail("string length %d exceeds the %d bytes left", n, len(d.buf))
	}
	if d.err != nil {
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// length reads a slice or map length written as u(L+1); isNil reports
// the nil marker. A length the remaining input cannot hold at minBytes
// per element is an error, caught before anything is allocated.
func (d *batchDecoder) length(minBytes int) (n int, isNil bool) {
	v := d.uvarint()
	if d.err != nil || v == 0 {
		return 0, true
	}
	if v-1 > uint64(len(d.buf)/minBytes) {
		d.fail("length %d exceeds the %d bytes left", v-1, len(d.buf))
		return 0, true
	}
	return int(v - 1), false
}

// records decodes one fault's divergence records.
func (d *batchDecoder) records() map[netlist.NodeID]logic.Value {
	n, isNil := d.length(2)
	if isNil {
		return nil
	}
	m := make(map[netlist.NodeID]logic.Value, n)
	var prev int64
	for i := 0; i < n && d.err == nil; i++ {
		var node int64
		if i == 0 {
			node = int64(d.node())
		} else {
			gap := d.uvarint()
			if gap >= uint64(math.MaxInt32-prev) {
				d.fail("record node gap %d overflows", gap)
			}
			node = prev + 1 + int64(gap)
		}
		m[netlist.NodeID(node)] = d.value()
		prev = node
	}
	return m
}
