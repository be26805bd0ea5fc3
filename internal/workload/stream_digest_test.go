package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// streamDigests are the sha256 digests of every kernel's operation streams
// at scale 0.05 on 4 processors and on 1 (whose single stream spans several
// script chunks), taken from the flat one-slice-per-processor scripts the
// chunked store replaced. Every op's processor, position, kind, address,
// cycles and barrier id enters the hash, so any change to the generated
// streams shows here.
var streamDigests = map[string][2]string{ // kernel -> {4 procs, 1 proc}
	"mp3d":     {"e03b008e2a644301524ce9b9d21d8a06e3a39c5f0f8595221cab38e25d89e64b", "f1992fb71181faa902632cc6c1117941ecadd6c4efc8a96e31df454f35fba48e"},
	"cholesky": {"d6ea44013a1bef7a29b0f790e67d9f28048ab10c04bd1821f56d6efa91d80598", "6e182a8c956695593d354801522011d6c4e9b75656f11edc7b78e1492f363d61"},
	"water":    {"3dc9386fc9acbf0b80dffed213cd0ff9ba3e6d6f77f6e3a70cc2bd93f0f2e562", "f832c7a7b4ede1aeb1c5fcdcf9d5e1e57314435fa4b15ad11d1311ec02810548"},
	"lu":       {"d2733185ce91ff57ae830b36b826727862bdd544f0454594e27b74e3dd90bcad", "861635ffdb818472809843ad5b7adc8178671f41b65aa39b5f65883194e923b2"},
	"ocean":    {"60f6b7336de567a1dbec98f81348182c6dcf4335dc76ddb030046412b434b245", "9851a79034e73e0c7a2acaf2ef005c071de5b2f59ecab96289495e82c0c68d09"},
}

// TestStreamsIdenticalOpForOp pins the chunked script store: every kernel
// emits exactly the op sequence the flat scripts did.
func TestStreamsIdenticalOpForOp(t *testing.T) {
	for _, name := range Names() {
		for i, procs := range []int{4, 1} {
			streams, err := Streams(name, procs, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf [41]byte
			ops := 0
			for p, st := range streams {
				n := 0
				for op, ok := st.Next(); ok; op, ok = st.Next() {
					buf[0] = byte(op.Kind)
					binary.LittleEndian.PutUint64(buf[1:], uint64(op.Addr))
					binary.LittleEndian.PutUint64(buf[9:], uint64(op.Cycles))
					binary.LittleEndian.PutUint64(buf[17:], uint64(op.Bar))
					binary.LittleEndian.PutUint64(buf[25:], uint64(p))
					binary.LittleEndian.PutUint64(buf[33:], uint64(n))
					h.Write(buf[:])
					n++
				}
				ops += n
			}
			want := streamDigests[name][i]
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("%s on %d procs: %d ops, stream digest %s, want %s", name, procs, ops, got, want)
			}
		}
	}
}
