// Package trace persists client-side operation traces in a compact,
// line-oriented format modelled on Darshan DXT logs: one record per
// completed I/O operation with rank, op type, offsets, timestamps, and the
// storage targets it touched. The paper's labelling pipeline matches
// operations "between large trace logs" offline; this package is that
// interchange format, letting cmd/simrun dump traces and the labeller
// consume them later.
//
// Format (tab-separated, one record per line; a line starting with '#' is a
// comment and blank lines are skipped):
//
//	workload  rank  iter  seq  kind  path  offset  size  start_ns  end_ns  targets(comma)
//
// Every number is a non-negative decimal, end_ns is not before start_ns, and
// an op that touched no target writes "-". Names are written as they are,
// except that an empty name is "-", a name that is "-" or starts with '#' or
// '\' gets a '\' prefix, and tabs and newlines become '_' — so a record
// whose names hold no tab or newline reads back exactly.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

// Header is written at the top of every trace file.
const Header = "# quanterference DXT-style trace v1"

// Writer streams records to an io.Writer.
type Writer struct {
	w   *bufio.Writer
	n   int
	err error
}

// NewWriter writes the header and returns a streaming writer.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	_, err := fmt.Fprintln(bw, Header)
	return &Writer{w: bw, err: err}
}

// Write appends one record.
func (t *Writer) Write(rec workload.Record) {
	if t.err != nil {
		return
	}
	targets := make([]string, len(rec.Targets))
	for i, tg := range rec.Targets {
		targets[i] = strconv.Itoa(tg)
	}
	targetField := strings.Join(targets, ",")
	if targetField == "" {
		targetField = "-" // keep the line exactly 11 fields
	}
	_, t.err = fmt.Fprintf(t.w, "%s\t%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%s\n",
		encodeName(rec.Workload), rec.Rank, rec.Iter, rec.Seq,
		rec.Op.Kind, encodeName(rec.Op.Path), rec.Op.Offset, rec.Op.Size,
		rec.Start, rec.End, targetField)
	if t.err == nil {
		t.n++
	}
}

// Count returns the number of records written so far.
func (t *Writer) Count() int { return t.n }

// Flush drains buffers and reports any accumulated error.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// encodeName keeps the format line-oriented and tab-separated, and escapes
// the names a reader would otherwise take for an empty name or a comment.
func encodeName(s string) string {
	if s == "" {
		return "-"
	}
	s = strings.ReplaceAll(s, "\t", "_")
	s = strings.ReplaceAll(s, "\n", "_")
	if s == "-" || s[0] == '#' || s[0] == '\\' {
		return "\\" + s
	}
	return s
}

func decodeName(s string) string {
	if s == "-" {
		return ""
	}
	return strings.TrimPrefix(s, "\\")
}

// Read parses an entire trace stream.
func Read(r io.Reader) ([]workload.Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var out []workload.Record
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" || strings.HasPrefix(text, "#") {
			continue
		}
		rec, err := parseLine(text)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseLine(text string) (workload.Record, error) {
	var rec workload.Record
	fields := strings.Split(text, "\t")
	if len(fields) != 11 {
		return rec, fmt.Errorf("want 11 fields, got %d", len(fields))
	}
	kind, err := parseKind(fields[4])
	if err != nil {
		return rec, err
	}
	ints := make([]int64, 0, 7)
	for _, idx := range []int{1, 2, 3, 6, 7, 8, 9} {
		v, err := strconv.ParseInt(fields[idx], 10, 64)
		if err != nil {
			return rec, fmt.Errorf("field %d: %w", idx, err)
		}
		if v < 0 {
			return rec, fmt.Errorf("field %d: negative value %d", idx, v)
		}
		ints = append(ints, v)
	}
	rec = workload.Record{
		Workload: decodeName(fields[0]),
		Rank:     int(ints[0]),
		Iter:     int(ints[1]),
		Seq:      int(ints[2]),
		Op: workload.Op{
			Kind:   kind,
			Path:   decodeName(fields[5]),
			Offset: ints[3],
			Size:   ints[4],
		},
		Start: sim.Time(ints[5]),
		End:   sim.Time(ints[6]),
	}
	if rec.End < rec.Start {
		return rec, fmt.Errorf("end %d before start %d", rec.End, rec.Start)
	}
	if fields[10] != "" && fields[10] != "-" {
		for _, t := range strings.Split(fields[10], ",") {
			v, err := strconv.Atoi(t)
			if err != nil {
				return rec, fmt.Errorf("target %q: %w", t, err)
			}
			if v < 0 {
				return rec, fmt.Errorf("negative target %d", v)
			}
			rec.Targets = append(rec.Targets, v)
		}
	}
	return rec, nil
}

func parseKind(s string) (workload.Kind, error) {
	for k := workload.Read; k <= workload.Compute; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown op kind %q", s)
}
