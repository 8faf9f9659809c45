package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"microp4/internal/ir"
	"microp4/internal/mat"
)

// The accessor-equals-oracle properties: whatever the field, the buffer
// and the sequence, a compiled header move does exactly what ReadBits and
// WriteBits — the reference interpreter's accessors — do.
// TestBitAccessProperty sweeps single loads and stores over every offset,
// width and buffer length, then runs seeded random move sequences through
// a fused block and through the per-statement closures; FuzzBitAccess
// runs fuzzer-chosen sequences; TestBitAccessMutations shows both
// properties fail when an accessor is broken.

func assign(lhs, rhs *ir.Expr) *ir.Stmt { return &ir.Stmt{Kind: ir.SAssign, LHS: lhs, RHS: rhs} }

func bslice(off, w int) *ir.Expr { return &ir.Expr{Kind: ir.EBSlice, Off: off, Width: w} }

// accessSweep compares one compiled load and one compiled store with
// the oracle for every off 0..135, w 1..64 and buffer length 0..26: the
// field inside the buffer, straddling its end, and wholly outside.
func accessSweep() (err error) {
	var off, w, n int
	// A panic is what a dropped bounds guard produces: a failure too.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		if err != nil {
			err = fmt.Errorf("off %d w %d len %d: %w", off, w, n, err)
		}
	}()
	const maxLen, guard = 26, 16
	pl := &mat.Pipeline{Decls: []ir.Decl{{Path: "v", Kind: ir.DeclBits, Width: 64}}}
	c := &compiler{sm: pl.Slots()}
	slot, _ := c.sm.Scalar("v")
	st := &execState{scalars: make([]uint64, c.sm.NumScalars())}
	rng := rand.New(rand.NewSource(1))
	got, want := make([]byte, maxLen+guard), make([]byte, maxLen+guard)
	for off = 0; off <= 135; off++ {
		for w = 1; w <= 64; w++ {
			ld, okL := c.move(assign(ir.Ref("v", 64), bslice(off, w)))
			sto, okS := c.move(assign(bslice(off, w), ir.Ref("v", 64)))
			if !okL || !okS {
				return fmt.Errorf("not lowered to a move")
			}
			// The store without its extension, so that fields straddling
			// and past the end of the buffer occur.
			sto.end = 0
			for n = 0; n <= maxLen; n++ {
				rng.Read(got)
				copy(want, got)
				v := rng.Uint64()

				st.buf, st.scalars[slot] = got[:n], ^uint64(0)
				runMoves([]move{ld}, st)
				if g, r := st.scalars[slot], ReadBits(want[:n], off, w); g != r {
					return fmt.Errorf("load %#x, ReadBits %#x", g, r)
				}
				// The bytes after len are compared too.
				st.scalars[slot] = v
				runMoves([]move{sto}, st)
				WriteBits(want[:n], off, w, v)
				if !bytes.Equal(got, want) {
					return fmt.Errorf("store of %#x leaves %x, WriteBits %x", v, got, want)
				}
			}
		}
	}
	return nil
}

// moveSequence draws a statement list of the four move shapes — narrow
// destinations, stores past the end followed by loads of the extended
// bytes, widths ReadBits cannot specialise — broken up now and then by a
// statement that is not a move, and runs it fused and unfused from one
// initial state.
func moveSequence(c *choices) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	nRefs := 2 + c.intn(5)
	ref := func() *ir.Expr { return ir.Ref(fmt.Sprintf("s%d", c.intn(nRefs)), c.intn(65)) }
	field := func() *ir.Expr {
		off, w := c.intn(8*56), 1+c.intn(64)
		switch c.intn(8) {
		case 0, 1:
			off, w = off&^7, 8<<uint(c.intn(4))
		case 2:
			off &^= 7
		case 3:
			w = c.intn(73) // 0 and 65..72 have no fast accessor
		}
		return bslice(off, w)
	}
	var ss []*ir.Stmt
	stored := field()
	for i, n := 0, 1+c.intn(24); i < n; i++ {
		switch c.intn(10) {
		case 0, 1, 2:
			ss = append(ss, assign(ref(), field()))
		case 3, 4, 5:
			stored = field()
			ss = append(ss, assign(stored, ref()))
		case 6:
			ss = append(ss, assign(ref(), stored))
		case 7:
			ss = append(ss, assign(ref(), ref()))
		case 8:
			ss = append(ss, assign(ref(), ir.Const(c.u64(), 64)))
		default:
			ss = append(ss, &ir.Stmt{Kind: ir.SShift, Off: c.intn(64), Amt: c.intn(9) - 4})
		}
	}
	pl := &mat.Pipeline{Stmts: ss}
	e := NewExec(pl, NewTables())
	cmp := &compiler{e: e, sm: pl.Slots()}
	unfused := make([]stmtFn, len(ss))
	for i, s := range ss {
		unfused[i] = cmp.stmt(s)
	}

	// One initial state for both: a pooled buffer with stale bytes in its
	// spare capacity, and arbitrary scalars.
	n := c.intn(41)
	pooled := make([]byte, 128)
	for i := range pooled {
		pooled[i] = byte(c.intn(256)) | 1
	}
	scalars := make([]uint64, e.nScalars)
	for i := range scalars {
		scalars[i] = c.u64()
	}
	run := func(fns []stmtFn) (*execState, error) {
		st := e.getState()
		st.buf = append([]byte(nil), pooled...)[:n]
		copy(st.scalars, scalars)
		return st, runList(fns, st)
	}
	a, errA := run(e.prog)
	b, errB := run(unfused)
	if errA != nil || errB != nil {
		return fmt.Errorf("fused returns %v, unfused %v", errA, errB)
	}
	if !bytes.Equal(a.buf, b.buf) {
		err = fmt.Errorf("fused leaves %d bytes %x, unfused %d bytes %x", len(a.buf), a.buf, len(b.buf), b.buf)
	}
	for i := range a.scalars {
		if a.scalars[i] != b.scalars[i] {
			err = fmt.Errorf("scalar %d: fused %#x, unfused %#x", i, a.scalars[i], b.scalars[i])
		}
	}
	if err != nil {
		return fmt.Errorf("%w\nfrom %d bytes %x\n%s", err, n, pooled[:n], stmtsString(ss))
	}
	return nil
}

func stmtsString(ss []*ir.Stmt) string {
	var b bytes.Buffer
	for _, s := range ss {
		b.WriteString(ir.StmtString(s))
	}
	return b.String()
}

func moveSequenceSeeds(seeds int) error {
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if err := moveSequence(randomHistory(seed, 512)); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return nil
}

func TestBitAccessProperty(t *testing.T) {
	if err := accessSweep(); err != nil {
		t.Error(err)
	}
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	if err := moveSequenceSeeds(seeds); err != nil {
		t.Error(err)
	}
}

// TestBitAccessMutations breaks the accessors two ways and expects each
// property to notice each.
func TestBitAccessMutations(t *testing.T) {
	defer func() { moveMutation = 0 }()
	for m, name := range map[int]string{1: "in-bounds guard dropped", 2: "window shifted one bit too far"} {
		moveMutation = m
		if accessSweep() == nil {
			t.Errorf("mutation %d (%s) went unnoticed by the sweep", m, name)
		}
		if moveSequenceSeeds(300) == nil {
			t.Errorf("mutation %d (%s) went unnoticed by the sequences", m, name)
		}
	}
}

// TestMovesFuse pins the lowering itself: a run of moves is one closure,
// a statement that is not a move ends it, and the run resumes after.
func TestMovesFuse(t *testing.T) {
	mv := func() *ir.Stmt { return assign(ir.Ref("a", 16), bslice(96, 16)) }
	other := assign(ir.Ref("a", 16), &ir.Expr{Kind: ir.EUn, Op: "~", Width: 16, X: ir.Ref("a", 16)})
	pl := &mat.Pipeline{Stmts: []*ir.Stmt{mv(), mv(), mv(), other, mv(),
		{Kind: ir.SIf, Cond: ir.BoolConst(true), Then: []*ir.Stmt{mv(), mv()}}}}
	if e := NewExec(pl, NewTables()); len(e.prog) != 4 {
		t.Errorf("3 moves, 1 other, 1 move, 1 if compile to %d closures, want 4", len(e.prog))
	}
}

// TestExtendZeroFills: growth inside a pooled buffer's spare capacity
// must not expose the previous packet's bytes.
func TestExtendZeroFills(t *testing.T) {
	dirty := bytes.Repeat([]byte{0xFF}, 64)
	st := &execState{buf: dirty[:4]}
	st.extend(10)
	if want := append(bytes.Repeat([]byte{0xFF}, 4), make([]byte, 6)...); !bytes.Equal(st.buf, want) {
		t.Errorf("extend(10) leaves %x, want %x", st.buf, want)
	}
	st.buf = dirty[:10]
	copy(st.buf, "0123456789")
	dirty[10], dirty[11], dirty[12] = 0xFF, 0xFF, 0xFF
	st.shift(4, 3)
	if want := []byte("0123\x00\x00\x00456789"); !bytes.Equal(st.buf, want) {
		t.Errorf("shift(4, 3) leaves %q, want %q", st.buf, want)
	}
}

func FuzzBitAccess(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(randomHistory(seed, 512).data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := moveSequence(&choices{data: data}); err != nil {
			t.Fatal(err)
		}
	})
}
