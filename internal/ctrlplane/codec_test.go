package ctrlplane_test

import (
	"testing"

	"microp4/internal/wiretest"
)

// The codec checks live in the shared gate (internal/wiretest, run in
// full by internal/wire's TestCodecGate and FuzzDecode). The names
// below are the historical per-message tests, kept as entry points into
// the rows and properties that replaced their bodies.

func check(t *testing.T, row string, property func(*testing.T, wiretest.Row)) {
	property(t, wiretest.RowNamed(t, row))
}

func TestCtrlOpRoundTrip(t *testing.T)            { check(t, "CtrlOp", wiretest.RoundTrip) }
func TestCtrlReplyRoundTrip(t *testing.T)         { check(t, "CtrlReply", wiretest.RoundTrip) }
func TestCtrlOpCorruptionDetected(t *testing.T)   { check(t, "CtrlOp", wiretest.BitFlips) }
func TestCtrlOpTruncationDetected(t *testing.T)   { check(t, "CtrlOp", wiretest.Truncations) }
func TestEncodeCapsOversizedFields(t *testing.T)  { check(t, "CtrlOp", wiretest.Caps) }
func TestFlowSyncRoundTrip(t *testing.T)          { check(t, "FlowSync", wiretest.RoundTrip) }
func TestFlowAckRoundTrip(t *testing.T)           { check(t, "FlowAck", wiretest.RoundTrip) }
func TestFlowSyncTruncationDetected(t *testing.T) { check(t, "FlowSync", wiretest.Truncations) }

func TestDecodeRejectsForeignMessages(t *testing.T) {
	check(t, "CtrlOp", wiretest.Foreign)
	check(t, "CtrlReply", wiretest.Foreign)
}

func TestFlowSyncCorruptionDetected(t *testing.T) {
	check(t, "FlowSync", wiretest.BitFlips)
	check(t, "FlowAck", wiretest.BitFlips)
}

func TestFlowSyncRejectsCrossTypes(t *testing.T) {
	check(t, "FlowSync", wiretest.Foreign)
	check(t, "FlowAck", wiretest.Foreign)
}

func FuzzDecodeCtrlOp(f *testing.F)    { wiretest.Fuzz(f) }
func FuzzDecodeCtrlReply(f *testing.F) { wiretest.Fuzz(f) }
func FuzzDecodeFlowSync(f *testing.F)  { wiretest.Fuzz(f) }
func FuzzDecodeFlowAck(f *testing.F)   { wiretest.Fuzz(f) }
