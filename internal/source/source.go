// Package source provides source-file bookkeeping shared by the MiniC
// front end: file contents, byte-offset to line/column mapping, and
// position/range types that the lexer, parser, semantic analyzer, and
// debug-information machinery all agree on.
//
// Lines and columns are 1-based, as in every compiler diagnostic and in
// DWARF line tables. A zero line means "no source position" (an artificial
// instruction), mirroring how LLVM drops debug locations when moving code.
package source

import (
	"fmt"
	"sort"
)

// Pos identifies a point in a source file.
type Pos struct {
	Line int // 1-based; 0 means unknown/artificial
	Col  int // 1-based; 0 means unknown
}

// IsValid reports whether the position refers to a real source point.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Before reports whether p is strictly before q in source order.
func (p Pos) Before(q Pos) bool {
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}

// Range is a half-open source region [Start, End).
type Range struct {
	Start Pos
	End   Pos
}

// Contains reports whether position p falls within the range.
func (r Range) Contains(p Pos) bool {
	return !p.Before(r.Start) && p.Before(r.End)
}

// File holds one MiniC source file and its line index.
type File struct {
	Name    string
	Content []byte
	// lineStart[i] is the byte offset of the first byte of line i+1.
	lineStart []int
}

// NewFile builds a File and its line-offset index.
func NewFile(name string, content []byte) *File {
	f := &File{Name: name, Content: content}
	f.lineStart = append(f.lineStart, 0)
	for i, b := range content {
		if b == '\n' {
			f.lineStart = append(f.lineStart, i+1)
		}
	}
	return f
}

// NumLines returns the number of lines in the file. A trailing newline does
// not create an extra empty line.
func (f *File) NumLines() int {
	n := len(f.lineStart)
	if n > 1 && f.lineStart[n-1] == len(f.Content) {
		return n - 1
	}
	return n
}

// PosFor converts a byte offset into a line/column position.
func (f *File) PosFor(offset int) Pos {
	if offset < 0 {
		return Pos{}
	}
	if offset > len(f.Content) {
		offset = len(f.Content)
	}
	// Find the last lineStart <= offset.
	i := sort.Search(len(f.lineStart), func(i int) bool {
		return f.lineStart[i] > offset
	}) - 1
	return Pos{Line: i + 1, Col: offset - f.lineStart[i] + 1}
}

// Error is a front-end diagnostic attached to a position.
type Error struct {
	File string
	Pos  Pos
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%s: %s", e.File, e.Pos, e.Msg)
}

// ErrorList collects diagnostics; it implements error.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0].Error(), len(l)-1)
}

// Err returns nil when the list is empty, otherwise the list itself.
func (l ErrorList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l
}
