package source

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPosForBasics(t *testing.T) {
	f := NewFile("t", []byte("ab\ncd\n\nxyz"))
	cases := []struct {
		off       int
		line, col int
	}{
		{0, 1, 1}, {1, 1, 2}, {2, 1, 3}, // '\n' belongs to line 1
		{3, 2, 1}, {5, 2, 3},
		{6, 3, 1},
		{7, 4, 1}, {9, 4, 3},
	}
	for _, c := range cases {
		p := f.PosFor(c.off)
		if p.Line != c.line || p.Col != c.col {
			t.Errorf("PosFor(%d) = %v, want %d:%d", c.off, p, c.line, c.col)
		}
	}
	if n := f.NumLines(); n != 4 {
		t.Errorf("NumLines = %d, want 4", n)
	}
}

// TestPosForRoundTrip (property): the position of every offset lands on
// a line whose text actually contains that offset's byte.
func TestPosForRoundTrip(t *testing.T) {
	check := func(raw []byte) bool {
		// Normalize to printable + newlines so the line comparison holds.
		content := make([]byte, len(raw))
		for i, b := range raw {
			if b%7 == 0 {
				content[i] = '\n'
			} else {
				content[i] = 'a' + b%26
			}
		}
		f := NewFile("q", content)
		lines := strings.Split(string(content), "\n")
		for off := 0; off < len(content); off++ {
			p := f.PosFor(off)
			if !p.IsValid() {
				return false
			}
			if content[off] == '\n' {
				continue // the newline terminates its line
			}
			line := lines[p.Line-1]
			if p.Col-1 >= len(line)+1 {
				return false
			}
			if p.Col-1 < len(line) && line[p.Col-1] != content[off] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{Start: Pos{Line: 2, Col: 3}, End: Pos{Line: 4, Col: 1}}
	if !r.Contains(Pos{Line: 2, Col: 3}) || !r.Contains(Pos{Line: 3, Col: 99}) {
		t.Error("range should contain start and interior")
	}
	if r.Contains(Pos{Line: 4, Col: 1}) || r.Contains(Pos{Line: 2, Col: 2}) {
		t.Error("range should exclude end and points before start")
	}
}

func TestErrorList(t *testing.T) {
	var l ErrorList
	if l.Err() != nil {
		t.Error("empty list should be nil error")
	}
	l = append(l, &Error{File: "f", Pos: Pos{Line: 1, Col: 2}, Msg: "boom"})
	if !strings.Contains(l.Error(), "f:1:2: boom") {
		t.Errorf("unexpected message %q", l.Error())
	}
	l = append(l, &Error{File: "f", Pos: Pos{Line: 3, Col: 1}, Msg: "x"})
	if !strings.Contains(l.Error(), "1 more error") {
		t.Errorf("expected summary, got %q", l.Error())
	}
}
