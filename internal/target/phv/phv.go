// Package phv models Tofino's Packet Header Vector: the pool of 8-,
// 16-, and 32-bit containers every header field and metadata scalar
// must be mapped into before a program can run. It is the repo's
// substitute for bf-p4c's PHV allocation phase, and the source of the
// Table 2 numbers (container counts and allocated bits; see
// DESIGN.md, "Target-model calibration").
//
// Two packing disciplines are modeled, matching the two compilation
// paths of the paper:
//
//   - ModeNatural is the flat (monolithic) path: every field lives in
//     its natural size class — ≤8 bits in an 8b container, 9–16 bits
//     in a 16b container, wider fields in as many dedicated 32b
//     containers as they need. Adjacent small fields of the same
//     group (header instance) share containers, but a class that runs
//     out is a hard allocation failure: the flat path has no
//     restructuring pass and cannot spill across classes (the §7.3
//     monolithic-P7 failure).
//
//   - ModeAligned16 is the µP4 path after the §6.3 alignment pass:
//     byte-stack elements and header-field copies are packed
//     16-bit-aligned into 16b containers (wide fields take
//     ceil(bits/16) of them), and when the 16b class is exhausted the
//     backend may spill chunks into 32b containers. This is why
//     composed programs lean heavily on 16b containers (Table 2's
//     ≈2–5× blow-up) while barely touching the 32b class.
//
// In both modes, POV (packet-occupancy-vector) validity bits pack
// eight per shared 8b container, and Fixed fields (intrinsic
// metadata) pin to their natural class so the two paths carry an
// identical intrinsic footprint.
package phv

import "fmt"

// Inventory is the per-class container budget of a target.
type Inventory struct {
	N8  int // 8-bit containers
	N16 int // 16-bit containers
	N32 int // 32-bit containers
}

// TofinoInventory is the modeled Tofino profile: 64×8b and 96×16b
// (the publicly documented container counts) and 28×32b — the 32-bit
// class models the budget left to a user program after bf-p4c's
// infrastructure reservations. See DESIGN.md, "Target-model
// calibration", for why this single knob reproduces the §7.3
// monolithic-P7 failure.
var TofinoInventory = Inventory{N8: 64, N16: 96, N32: 28}

// MaxALUOperands is the per-action-ALU operand budget: the number of
// PHV containers one ALU operation may access (the destination plus
// its sources). Assignments exceeding it must be split into a series
// of MATs (µP4C's backend pass, §6.3) or fail to compile (the flat
// path, §7.3).
const MaxALUOperands = 4

// Mode selects the packing discipline.
type Mode int

const (
	// ModeNatural packs fields monolithically in their natural size
	// classes with no cross-class spill (the flat bf-p4c path).
	ModeNatural Mode = iota
	// ModeAligned16 packs fields 16-bit-aligned into 16b containers,
	// spilling to 32b when the class is exhausted (the µP4 backend
	// after the §6.3 alignment pass).
	ModeAligned16
)

func (m Mode) String() string {
	switch m {
	case ModeNatural:
		return "natural"
	case ModeAligned16:
		return "aligned16"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Field is one PHV allocation request.
type Field struct {
	Name  string // fully-qualified storage path (e.g. "h.ipv4.ttl")
	Bits  int    // width; 0 is treated as 1
	Group string // co-residency group (header instance or "var:" scope)
	POV   bool   // validity bit: packs 8-per-8b-container, ignores Group
	Fixed bool   // intrinsic metadata: pins to its natural class in every Mode
}

// Container identifies one allocated PHV container.
type Container struct {
	Size  int // 8, 16, or 32
	Index int // ordinal within its size class, allocation order
}

// Alloc is the outcome of a successful allocation.
type Alloc struct {
	Used8         int
	Used16        int
	Used32        int
	BitsAllocated int                    // container capacity consumed: 8·Used8 + 16·Used16 + 32·Used32
	ByField       map[string][]Container // every container each field occupies (shared containers appear under each resident)
}

// Allocator maps fields onto an Inventory under a Mode.
type Allocator struct {
	Inv  Inventory
	Mode Mode
}

// open is a partially-filled container accepting co-residents.
type open struct {
	c   Container
	rem int // bits still free
}

// allocState tracks class usage during one Allocate call.
type allocState struct {
	inv                   Inventory
	used8, used16, used32 int
}

// take claims a fresh container of the given size, or reports class
// exhaustion.
func (st *allocState) take(size int) (Container, bool) {
	switch size {
	case 8:
		if st.used8 >= st.inv.N8 {
			return Container{}, false
		}
		st.used8++
		return Container{Size: 8, Index: st.used8 - 1}, true
	case 16:
		if st.used16 >= st.inv.N16 {
			return Container{}, false
		}
		st.used16++
		return Container{Size: 16, Index: st.used16 - 1}, true
	case 32:
		if st.used32 >= st.inv.N32 {
			return Container{}, false
		}
		st.used32++
		return Container{Size: 32, Index: st.used32 - 1}, true
	}
	return Container{}, false
}

func naturalClass(bits int) int {
	switch {
	case bits <= 8:
		return 8
	case bits <= 16:
		return 16
	default:
		return 32
	}
}

// Allocate maps the fields onto the inventory in order. Allocation is
// deterministic: identical input yields an identical Alloc. On class
// exhaustion it returns a descriptive infeasibility error naming the
// class and the field that could not be placed.
func (a *Allocator) Allocate(fields []Field) (*Alloc, error) {
	st := &allocState{inv: a.Inv}
	out := &Alloc{ByField: make(map[string][]Container, len(fields))}
	// Open (shared) containers: POV bits pool globally; small fields
	// pool per (group, class).
	var povOpen *open
	groupOpen := make(map[string]*open) // key: group + "/" + class

	place := func(f *Field, c Container) {
		out.ByField[f.Name] = append(out.ByField[f.Name], c)
	}
	fresh := func(f *Field, size int) (Container, error) {
		c, ok := st.take(size)
		if !ok {
			return Container{}, fmt.Errorf("out of %d-bit PHV containers placing %s (%d bits; inventory %d)",
				size, f.Name, f.Bits, a.inventoryOf(size))
		}
		return c, nil
	}
	// shared places a small field into the group's open container of
	// the given class, opening a new one when it does not fit.
	shared := func(f *Field, size, bits int) error {
		key := fmt.Sprintf("%s/%d", f.Group, size)
		o := groupOpen[key]
		if o == nil || o.rem < bits {
			c, err := fresh(f, size)
			if err != nil {
				return err
			}
			o = &open{c: c, rem: size}
			groupOpen[key] = o
		}
		o.rem -= bits
		place(f, o.c)
		return nil
	}
	// dedicated places a wide field across ceil(bits/size) fresh
	// containers of one class.
	dedicated := func(f *Field, size, bits int) error {
		for n := (bits + size - 1) / size; n > 0; n-- {
			c, err := fresh(f, size)
			if err != nil {
				return err
			}
			place(f, c)
		}
		return nil
	}
	// spill16 places 16-bit chunks with 32b-class overflow: the µP4
	// backend may re-home aligned chunks when the 16b class runs dry
	// (two chunks per 32b container).
	var spillOpen *open
	spill16 := func(f *Field, bits int) error {
		for n := (bits + 15) / 16; n > 0; n-- {
			if c, ok := st.take(16); ok {
				place(f, c)
				continue
			}
			if spillOpen == nil || spillOpen.rem < 16 {
				c, ok := st.take(32)
				if !ok {
					return fmt.Errorf("out of 16-bit PHV containers placing %s (%d bits) and no 32-bit containers left to spill into (inventory %d×16b, %d×32b)",
						f.Name, f.Bits, a.Inv.N16, a.Inv.N32)
				}
				spillOpen = &open{c: c, rem: 32}
			}
			spillOpen.rem -= 16
			place(f, spillOpen.c)
		}
		return nil
	}

	for i := range fields {
		f := &fields[i]
		bits := f.Bits
		if bits <= 0 {
			bits = 1
		}
		switch {
		case f.POV:
			// Validity bits pack 8 per shared 8b container in both
			// modes.
			if povOpen == nil || povOpen.rem < 1 {
				c, err := fresh(f, 8)
				if err != nil {
					return nil, err
				}
				povOpen = &open{c: c, rem: 8}
			}
			povOpen.rem--
			place(f, povOpen.c)
		case f.Fixed || a.Mode == ModeNatural:
			// Natural size classes; no cross-class spill.
			if cls := naturalClass(bits); cls == 32 {
				if err := dedicated(f, 32, bits); err != nil {
					return nil, err
				}
			} else if err := shared(f, cls, bits); err != nil {
				return nil, err
			}
		default: // ModeAligned16
			if bits > 16 {
				if err := spill16(f, bits); err != nil {
					return nil, err
				}
			} else {
				// Same-group small fields may co-reside in one 16b
				// container; a group change or a full container opens
				// a new one.
				key := f.Group + "/a16"
				o := groupOpen[key]
				if o == nil || o.rem < bits {
					c, ok := st.take(16)
					if !ok {
						// The aligned path spills small fields too.
						if err := spill16(f, bits); err != nil {
							return nil, err
						}
						continue
					}
					o = &open{c: c, rem: 16}
					groupOpen[key] = o
				}
				o.rem -= bits
				place(f, o.c)
			}
		}
	}

	out.Used8, out.Used16, out.Used32 = st.used8, st.used16, st.used32
	out.BitsAllocated = 8*out.Used8 + 16*out.Used16 + 32*out.Used32
	return out, nil
}

func (a *Allocator) inventoryOf(size int) int {
	switch size {
	case 8:
		return a.Inv.N8
	case 16:
		return a.Inv.N16
	case 32:
		return a.Inv.N32
	}
	return 0
}
