package core

import "testing"

// TestMsgTypeNames pins the array-indexed names: every message type up to
// MsgPrefNack has a unique, non-empty name, and out-of-range values have
// none.
func TestMsgTypeNames(t *testing.T) {
	seen := map[string]MsgType{}
	for mt := MsgReadReq; mt <= MsgPrefNack; mt++ {
		name := mt.String()
		if name == "" {
			t.Fatalf("message type %d has no name", int(mt))
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("message types %d and %d share the name %q", int(prev), int(mt), name)
		}
		seen[name] = mt
	}
	for _, mt := range []MsgType{-1, MsgPrefNack + 1} {
		if name := mt.String(); name != "" {
			t.Fatalf("out-of-range message type %d named %q", int(mt), name)
		}
	}
}
