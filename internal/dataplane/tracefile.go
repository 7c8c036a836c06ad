package dataplane

// A pcap-like trace format for streaming replay. A .lyt file is a plain
// text capture: one record per line, in capture order, each carrying a
// timestamp and the packet's header contents. Text keeps traces
// diffable, shrinkable, and writable by hand in testdata/, while the
// record order and per-record timestamps preserve what a binary capture
// would: global arrival order and the inter-packet gaps that
// timeout-driven programs (flowlets, idle eviction) key on.
//
//	# lyra trace v1
//	packet ts=100 valid=ipv4,tcp ipv4.src_ip=0xa000001 tcp.src_port=80
//	packet ts=140 valid=ipv4 ipv4.src_ip=0xa000002
//
// Unknown directives are rejected, not skipped — a typo in a checked-in
// trace should fail loudly.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// TraceRecord is one captured packet: its timestamp, valid headers, and
// field values.
type TraceRecord struct {
	TS     uint64
	Valid  []string
	Fields map[string]uint64
}

// Packet materializes the record as a map-based packet. When tsField is
// non-empty the timestamp is written into that field, so programs read
// capture time from the packet exactly like a replayed pcap.
func (r *TraceRecord) Packet(tsField string) *Packet {
	p := NewPacket()
	for _, h := range r.Valid {
		p.Valid[h] = true
	}
	for k, v := range r.Fields {
		p.Fields[k] = v
	}
	if tsField != "" {
		p.Fields[tsField] = r.TS
	}
	return p
}

// ParseTrace reads a .lyt capture. Every error names the line it is on, a
// line over 1 MiB included.
func ParseTrace(r io.Reader) ([]TraceRecord, error) {
	var recs []TraceRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] != "packet" {
			return nil, fmt.Errorf("trace line %d: unknown directive %q", lineNo, fields[0])
		}
		rec := TraceRecord{Fields: map[string]uint64{}}
		for _, tok := range fields[1:] {
			k, v, ok := strings.Cut(tok, "=")
			if !ok {
				return nil, fmt.Errorf("trace line %d: malformed token %q", lineNo, tok)
			}
			switch k {
			case "ts":
				n, err := strconv.ParseUint(v, 0, 64)
				if err != nil {
					return nil, fmt.Errorf("trace line %d: bad ts %q: %v", lineNo, v, err)
				}
				rec.TS = n
			case "valid":
				if v != "" {
					rec.Valid = strings.Split(v, ",")
				}
			default:
				if !strings.Contains(k, ".") {
					return nil, fmt.Errorf("trace line %d: field %q is not hdr.field", lineNo, k)
				}
				n, err := strconv.ParseUint(v, 0, 64)
				if err != nil {
					return nil, fmt.Errorf("trace line %d: bad value %q for %s: %v", lineNo, v, k, err)
				}
				rec.Fields[k] = n
			}
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace line %d: %w", lineNo+1, err)
	}
	return recs, nil
}

// WriteTrace writes records in the .lyt format, fields sorted for stable
// diffs.
func WriteTrace(w io.Writer, recs []TraceRecord) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# lyra trace v1")
	for _, r := range recs {
		fmt.Fprintf(bw, "packet ts=%d", r.TS)
		if len(r.Valid) > 0 {
			fmt.Fprintf(bw, " valid=%s", strings.Join(r.Valid, ","))
		}
		keys := make([]string, 0, len(r.Fields))
		for k := range r.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(bw, " %s=%d", k, r.Fields[k])
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// LoadTraceFile reads a .lyt capture from disk.
func LoadTraceFile(path string) ([]TraceRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ParseTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// FlattenTrace materializes every record as an engine packet, timestamps
// applied to tsField when non-empty.
func (e *Engine) FlattenTrace(recs []TraceRecord, tsField string) []*FlatPacket {
	out := make([]*FlatPacket, len(recs))
	for i := range recs {
		out[i] = e.Flatten(recs[i].Packet(tsField))
	}
	return out
}
