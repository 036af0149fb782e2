package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/sim"
)

// TraceEvent is one flow of an external trace: when it starts, its
// endpoints, and how many bytes it carries. Tenant is optional ("" means
// the replay's default tenant) and lets one trace file carry a multi-tenant
// mix.
type TraceEvent struct {
	Start  time.Duration
	Src    netaddr.IPv4
	Dst    netaddr.IPv4
	Bytes  int
	Tenant string
}

// maxTraceStart bounds trace timestamps (10^6 seconds ≈ 11 days of virtual
// time): large enough for any simulated run, small enough that the
// nanosecond count stays exactly representable through the text codecs.
const maxTraceStart = 1_000_000 * time.Second

// parseSeconds parses a nonnegative decimal-seconds literal ("12", "1.5",
// "0.000000250") into a Duration using pure integer arithmetic, so encode →
// parse round trips are exact. At most nine fractional digits are allowed
// (nanosecond resolution); exponents, signs, and spaces are not.
func parseSeconds(s string) (time.Duration, error) {
	intPart, fracPart := s, ""
	if i := strings.IndexByte(s, '.'); i >= 0 {
		intPart, fracPart = s[:i], s[i+1:]
	}
	if intPart == "" || len(fracPart) > 9 {
		return 0, fmt.Errorf("invalid seconds %q", s)
	}
	var sec int64
	for i := 0; i < len(intPart); i++ {
		c := intPart[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid seconds %q", s)
		}
		sec = sec*10 + int64(c-'0')
		if time.Duration(sec)*time.Second > maxTraceStart {
			return 0, fmt.Errorf("seconds %q beyond the 1e6s trace horizon", s)
		}
	}
	var ns int64
	for i := 0; i < len(fracPart); i++ {
		c := fracPart[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid seconds %q", s)
		}
		ns = ns*10 + int64(c-'0')
	}
	for i := len(fracPart); i < 9; i++ {
		ns *= 10
	}
	d := time.Duration(sec)*time.Second + time.Duration(ns)
	if d > maxTraceStart {
		return 0, fmt.Errorf("seconds %q beyond the 1e6s trace horizon", s)
	}
	return d, nil
}

// validate applies the invariants both codecs share.
func (ev *TraceEvent) validate() error {
	if ev.Start < 0 || ev.Start > maxTraceStart {
		return fmt.Errorf("start %v outside [0, %v]", ev.Start, maxTraceStart)
	}
	if ev.Bytes < 0 {
		return fmt.Errorf("negative bytes %d", ev.Bytes)
	}
	if strings.ContainsAny(ev.Tenant, ",\"\n\r") {
		return fmt.Errorf("tenant %q contains delimiter characters", ev.Tenant)
	}
	return nil
}

// ParseTraceCSV reads the CSV trace format:
//
//	start,src,dst,bytes[,tenant]
//
// start is decimal seconds (≤ 9 fractional digits), src/dst are dotted
// quads, bytes is a nonnegative integer, and the optional fifth column
// names the tenant. Blank lines and lines starting with '#' are skipped.
// A malformed line fails the parse with its line number; the parser never
// panics on hostile input (fuzzed by FuzzTraceCSV).
func ParseTraceCSV(r io.Reader) ([]TraceEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var out []TraceEvent
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ev, err := parseCSVLine(line)
		if err != nil {
			return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
	}
	return out, nil
}

func parseCSVLine(line string) (TraceEvent, error) {
	fields := strings.Split(line, ",")
	if len(fields) != 4 && len(fields) != 5 {
		return TraceEvent{}, fmt.Errorf("want 4 or 5 fields, got %d", len(fields))
	}
	var ev TraceEvent
	var err error
	if ev.Start, err = parseSeconds(strings.TrimSpace(fields[0])); err != nil {
		return TraceEvent{}, err
	}
	if ev.Src, err = netaddr.ParseIPv4(strings.TrimSpace(fields[1])); err != nil {
		return TraceEvent{}, err
	}
	if ev.Dst, err = netaddr.ParseIPv4(strings.TrimSpace(fields[2])); err != nil {
		return TraceEvent{}, err
	}
	if _, err = fmt.Sscanf(strings.TrimSpace(fields[3]), "%d", &ev.Bytes); err != nil {
		return TraceEvent{}, fmt.Errorf("invalid bytes %q", fields[3])
	}
	if len(fields) == 5 {
		ev.Tenant = strings.TrimSpace(fields[4])
	}
	if err := ev.validate(); err != nil {
		return TraceEvent{}, err
	}
	return ev, nil
}

// jsonTrace is the JSONL wire form. Start travels as a decimal-seconds
// string so round trips stay exact (JSON numbers are float64).
type jsonTrace struct {
	Start  string `json:"start_s"`
	Src    string `json:"src"`
	Dst    string `json:"dst"`
	Bytes  int    `json:"bytes"`
	Tenant string `json:"tenant,omitempty"`
}

// ParseTraceJSONL reads the JSONL trace format: one object per line,
// {"start_s":"1.500000000","src":"10.0.0.1","dst":"10.0.1.2","bytes":4000,
// "tenant":"web"}. Blank lines are skipped; any malformed line fails the
// parse with its line number.
func ParseTraceJSONL(r io.Reader) ([]TraceEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var out []TraceEvent
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var jt jsonTrace
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&jt); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("trace line %d: trailing data after object", lineNo)
		}
		var ev TraceEvent
		var err error
		if ev.Start, err = parseSeconds(jt.Start); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		if ev.Src, err = netaddr.ParseIPv4(jt.Src); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		if ev.Dst, err = netaddr.ParseIPv4(jt.Dst); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		ev.Bytes = jt.Bytes
		ev.Tenant = jt.Tenant
		if err := ev.validate(); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
	}
	return out, nil
}

// ParseTrace dispatches on a file name's extension: ".jsonl" (or ".json")
// selects JSONL, anything else the CSV format.
func ParseTrace(name string, r io.Reader) ([]TraceEvent, error) {
	if strings.HasSuffix(name, ".jsonl") || strings.HasSuffix(name, ".json") {
		return ParseTraceJSONL(r)
	}
	return ParseTraceCSV(r)
}

// ReplayConfig shapes how trace events become simulated flows.
type ReplayConfig struct {
	// MSS converts bytes to packets: ceil(bytes/MSS), minimum one packet
	// (default 1000, matching TraceGen's packet size).
	MSS int
	// PktIval spaces a replayed flow's packets (default 2ms).
	PktIval time.Duration
	// DefaultTenant labels events with no tenant column (default "replay").
	DefaultTenant string
	// Resolve maps an event to the emitter that will launch it and the
	// concrete destination address to use. Required: traces come from
	// foreign networks, and the mapping onto simulated hosts is the
	// experiment's choice (e.g. hashing endpoints onto its host set).
	Resolve func(ev TraceEvent) (*Emitter, netaddr.IPv4)
}

// Replay schedules every trace event at its start time. The trace's source
// address is kept in the flow key (a spoofed-source replay, like the DDoS
// generator), so flow identity follows the trace even when many trace
// endpoints map onto one simulated host. Returns the number of scheduled
// events. Events the resolver rejects (nil emitter) are skipped.
func Replay(eng sim.Proc, events []TraceEvent, cfg ReplayConfig) int {
	if cfg.MSS <= 0 {
		cfg.MSS = 1000
	}
	if cfg.PktIval == 0 {
		cfg.PktIval = 2 * time.Millisecond
	}
	if cfg.DefaultTenant == "" {
		cfg.DefaultTenant = "replay"
	}
	if cfg.Resolve == nil {
		panic("workload: Replay needs a Resolve mapping")
	}
	scheduled := 0
	for i, ev := range events {
		em, dst := cfg.Resolve(ev)
		if em == nil {
			continue
		}
		tenant := ev.Tenant
		if tenant == "" {
			tenant = cfg.DefaultTenant
		}
		pkts := (ev.Bytes + cfg.MSS - 1) / cfg.MSS
		if pkts < 1 {
			pkts = 1
		}
		f := Flow{
			Key: netaddr.FlowKey{Src: ev.Src, Dst: dst, Proto: netaddr.ProtoTCP,
				SrcPort: uint16(1024 + i%60000), DstPort: 80},
			Packets:  pkts,
			Interval: cfg.PktIval,
			Size:     cfg.MSS,
			Class:    tenant,
		}
		delay := ev.Start - eng.Now()
		if delay < 0 {
			delay = 0
		}
		eng.Schedule(delay, func() { em.Start(f) })
		scheduled++
	}
	return scheduled
}
