package wire_test

import (
	"testing"

	"microp4/internal/wiretest"
)

// TestCodecGate holds all six message types of both families to every
// property of the shared gate (internal/wiretest).
func TestCodecGate(t *testing.T) { wiretest.Gate(t) }

// FuzzDecode is the one fuzz target over every decoder.
func FuzzDecode(f *testing.F) { wiretest.Fuzz(f) }
