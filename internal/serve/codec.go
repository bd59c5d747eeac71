package serve

import (
	"fmt"
	"strconv"

	"quanterference/internal/monitor/window"
)

// The server reads the two window-matrix request bodies with this codec,
// not with encoding/json. It accepts one grammar per route and nothing
// else:
//
//	/v1/predict   {"matrix": [[n, …], …]}
//	/v1/forecast  {"history": [[[n, …], …], …]}
//
// JSON whitespace may sit between tokens and after the object, and nothing
// else may follow it. The object has exactly that one member, its key
// spelled exactly so: another member, another spelling ("Matrix", escaped
// characters), a duplicate key, null or a string is malformed. A number
// must match JSON's number grammar and is parsed with
// strconv.ParseFloat(s, 64), the call encoding/json makes, so a body the
// codec accepts decodes to the float bits json.Unmarshal gives it
// (FuzzDecodeBodies checks both properties).
//
// A decode walks the body twice. The first pass checks the grammar and
// counts numbers, rows and windows; the second parses the numbers into
// arrays allocated once from those counts: one backing array for every
// number and one for every row header (and, for a forecast, one for the
// window headers). Each row slices the backing array, capped at its length,
// so nothing decoded aliases the body and appending to a row cannot
// overwrite the next.

// decodePredict parses a /v1/predict body.
func decodePredict(b []byte) (window.Matrix, error) {
	d, err := decode(b, `"matrix"`, 2)
	return d.rowHdr, err
}

// decodeForecast parses a /v1/forecast body, oldest window first.
func decodeForecast(b []byte) ([]window.Matrix, error) {
	d, err := decode(b, `"history"`, 3)
	return d.hist, err
}

// blank reports whether b holds only JSON whitespace.
func blank(b []byte) bool {
	d := decoder{b: b}
	d.space()
	return d.i == len(b)
}

// decode checks b against the object grammar with the one member key,
// whose value nests depth lists around its numbers, then walks it again
// filling arrays sized by the first pass.
func decode(b []byte, key string, depth int) (decoder, error) {
	count := decoder{b: b}
	if err := count.object(key, depth); err != nil {
		return decoder{}, err
	}
	fill := decoder{b: b, backing: make([]float64, count.nums), rowHdr: make([][]float64, count.rows)}
	if depth == 3 { // a history of windows
		fill.hist = make([]window.Matrix, count.windows)
	}
	if err := fill.object(key, depth); err != nil {
		return decoder{}, err
	}
	return fill, nil
}

// decoder is one pass over a body. The first pass has no destination
// arrays, so it only checks the grammar and counts; the second writes into
// each array that is set.
type decoder struct {
	b []byte
	i int
	// What the pass has met so far.
	nums, rows, windows int

	backing []float64
	rowHdr  [][]float64
	hist    []window.Matrix
}

// object walks '{' key ':' value '}', its value an array of the given
// depth, and checks that only whitespace follows.
func (d *decoder) object(key string, depth int) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	d.space()
	if len(d.b)-d.i < len(key) || string(d.b[d.i:d.i+len(key)]) != key {
		return d.want(key + " as the only member")
	}
	d.i += len(key)
	if err := d.expect(':'); err != nil {
		return err
	}
	if err := d.array(depth); err != nil {
		return err
	}
	if err := d.expect('}'); err != nil {
		return err
	}
	d.space()
	if d.i < len(d.b) {
		return d.want("nothing after the object")
	}
	return nil
}

// array walks '[' (elem (',' elem)*)? ']', where an elem is a number at
// depth 1 and an array one level shallower otherwise: a row is depth 1, a
// matrix 2 and a history 3. When filling, a row takes its numbers' slice of
// the backing array and a window its rows' slice of the row headers.
func (d *decoder) array(depth int) error {
	nums, rows := d.nums, d.rows
	if err := d.expect('['); err != nil {
		return err
	}
	d.space()
	if d.i < len(d.b) && d.b[d.i] == ']' {
		d.i++
	} else {
		for {
			var err error
			if depth == 1 {
				err = d.number()
			} else {
				err = d.array(depth - 1)
			}
			if err != nil {
				return err
			}
			d.space()
			if d.i < len(d.b) && d.b[d.i] == ',' {
				d.i++
				continue
			}
			if d.i < len(d.b) && d.b[d.i] == ']' {
				d.i++
				break
			}
			return d.want("',' or ']'")
		}
	}
	switch depth {
	case 1:
		if d.rowHdr != nil {
			d.rowHdr[d.rows] = d.backing[nums:d.nums:d.nums]
		}
		d.rows++
	case 2:
		if d.hist != nil {
			d.hist[d.windows] = d.rowHdr[rows:d.rows:d.rows]
		}
		d.windows++
	}
	return nil
}

// number walks JSON's number grammar,
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, and, when filling, parses
// it.
func (d *decoder) number() error {
	d.space()
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		d.i = i
		return d.want("a number")
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			d.i = j
			return d.want("a digit")
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			d.i = j
			return d.want("a digit")
		}
		i = j
	}
	d.i = i
	if d.backing != nil {
		x, err := strconv.ParseFloat(string(b[start:i]), 64)
		if err != nil {
			return fmt.Errorf("byte %d: %w", start, err)
		}
		d.backing[d.nums] = x
	}
	d.nums++
	return nil
}

// digits returns the index of the first byte at or after i in b that is not
// a decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// space skips JSON whitespace.
func (d *decoder) space() {
	i := d.i
	for i < len(d.b) && (d.b[i] == ' ' || d.b[i] == '\t' || d.b[i] == '\n' || d.b[i] == '\r') {
		i++
	}
	d.i = i
}

// expect skips whitespace and consumes c.
func (d *decoder) expect(c byte) error {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return nil
	}
	return d.want(strconv.QuoteRune(rune(c)))
}

// want reports what the grammar needed at the current byte.
func (d *decoder) want(what string) error {
	if d.i >= len(d.b) {
		return fmt.Errorf("body ends, want %s", what)
	}
	return fmt.Errorf("byte %d: want %s", d.i, what)
}
