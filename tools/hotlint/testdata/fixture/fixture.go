// Package fixture exercises every hotlint finding kind and the directive
// grammar. It is linted by the hotlint tests; it is NOT part of the
// regular build because testdata directories are excluded from ./...
// patterns.
package fixture

// big is 128 bytes: above the pass-by-value threshold.
type big struct{ a [16]int64 }

// handler is dispatched through an interface in Root.
type handler interface{ Handle(x *int) }

// Root is a hot-path root exercising one instance of each finding kind.
//
//hot:path
func Root(h handler, m map[int]int, s []int, b big) int {
	n := make([]int, 4)             // make
	p := new(int)                   // new
	s = append(s, 1)                // append-growth
	q := &big{}                     // composite (&T{...})
	lit := []int{1, 2}              // composite (slice literal)
	name := "a" + suffix()          // string-concat
	bs := []byte(name)              // string-conv
	box(n[0])                       // iface-arg
	h.Handle(p)                     // iface-call
	f := func() int { return n[0] } // closure
	m[1] = 2                        // map-write
	m[2]++                          // map-write
	sinkBig(b)                      // big-copy
	callee()                        // pulled into the hot closure
	coldCallee()                    // NOT pulled: //hot:cold
	if len(lit) == 0 || len(bs) == 0 || q.a[0] != 0 {
		panic("fixture: " + name) // panic arguments are skipped
	}
	return *p + f() + int(s[0])
}

// suffix is hot via the closure walk but contains no findings.
func suffix() string { return "b" }

// box boxes its argument at the caller.
func box(v any) int {
	if v == nil {
		return 0
	}
	return 1
}

// sinkBig receives a 128-byte struct by value.
func sinkBig(b big) int64 { return b.a[0] }

// callee is pulled into the hot closure by Root; its finding is
// attributed to callee, not Root.
func callee() []int {
	return make([]int, 1)
}

// coldCallee is called from hot code but explicitly cold: its make is
// never reported.
//
//hot:cold
func coldCallee() []int {
	return make([]int, 2)
}

// Allowed demonstrates the suppression comment.
//
//hot:path
func Allowed() []int {
	return make([]int, 3) // hotlint:allow(make): fixture — documented cold fill path
}

// NotHot is unreachable from any root and is never reported.
func NotHot() []int { return make([]int, 9) }

// StackProven contains a make the compiler proves non-escaping, which the
// shape rules still report, and a moved-to-heap local they cannot see.
//
//hot:path
func StackProven() *int {
	x := 5
	s := make([]int, 4)
	x += s[0]
	return &x
}

// Escaping contains a composite literal the compiler confirms escapes.
//
//hot:path
func Escaping() *big {
	return &big{}
}
