package experiments

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Table is one study panel. Every result type builds its rows once, in its
// Table method, and both output formats come from them: Render writes the
// .txt panel and CSV the .csv file, so a text cell is the same string as
// its CSV cell.
type Table struct {
	// Title heads the text; the CSV leaves it out.
	Title string
	// Label, when set, is written verbatim as the CSV line(s) before the
	// header, marking a nested table's section; the text leaves it out.
	Label   string
	Columns []Column
	// Rows may be shorter than Columns. A float64 cell prints in its
	// column's Format; any other cell (int, string, bool) prints as
	// fmt.Sprint does.
	Rows [][]any
	// Notes follow the rows in the text only, each on a line of its own; a
	// note may span lines, such as another table's text.
	Notes []string
	// Tables nest after the notes: in the text each follows a blank line,
	// in the CSV its Label.
	Tables []*Table
}

// Column is one field of a Table: Name heads it in both formats, and
// Format prints its float cells.
type Column struct {
	Name, Format string
}

// lines returns the header, when the table has columns, and the formatted
// rows.
func (t *Table) lines() [][]string {
	var lines [][]string
	if len(t.Columns) > 0 {
		header := make([]string, len(t.Columns))
		for c, col := range t.Columns {
			header[c] = col.Name
		}
		lines = append(lines, header)
	}
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for c, v := range row {
			if f, ok := v.(float64); ok {
				cells[c] = fmt.Sprintf(t.Columns[c].Format, f)
			} else {
				cells[c] = fmt.Sprint(v)
			}
		}
		lines = append(lines, cells)
	}
	return lines
}

// Render writes the table as text: the title, then the header and rows
// with each column as wide as its widest cell (a column holding any number
// is right-aligned, a column of strings left-aligned), then the notes and
// the nested tables.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	right := make([]bool, len(t.Columns))
	for _, row := range t.Rows {
		for c, v := range row {
			if _, text := v.(string); !text {
				right[c] = true
			}
		}
	}
	lines := t.lines()
	width := make([]int, len(t.Columns))
	for _, line := range lines {
		for c, s := range line {
			width[c] = max(width[c], utf8.RuneCountInString(s))
		}
	}
	for _, line := range lines {
		var l strings.Builder
		for c, s := range line {
			verb := "%-*s"
			if right[c] {
				verb = "%*s"
			}
			if c > 0 {
				l.WriteString("  ")
			}
			fmt.Fprintf(&l, verb, width[c], s)
		}
		b.WriteString(strings.TrimRight(l.String(), " ") + "\n")
	}
	for _, n := range t.Notes {
		b.WriteString(strings.TrimSuffix(n, "\n") + "\n")
	}
	for _, sub := range t.Tables {
		b.WriteString("\n" + sub.Render())
	}
	return b.String()
}

// CSV writes the header and rows as comma-separated lines, then each nested
// table after its Label. The title and notes are text only.
func (t *Table) CSV() string {
	var b strings.Builder
	if t.Label != "" {
		b.WriteString(t.Label + "\n")
	}
	for _, line := range t.lines() {
		b.WriteString(strings.Join(line, ",") + "\n")
	}
	for _, sub := range t.Tables {
		b.WriteString(sub.CSV())
	}
	return b.String()
}
