package arp

import (
	"testing"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
)

// FuzzUnmarshal asserts the ARP parser never panics and accepted messages
// survive a Marshal∘Unmarshal round trip unchanged.
func FuzzUnmarshal(f *testing.F) {
	req := &Message{
		Op:       OpRequest,
		SenderHW: link.HWAddr{2, 0, 0, 0, 0, 1},
		SenderIP: ip.Addr{10, 0, 0, 1},
		TargetIP: ip.Addr{10, 0, 0, 2},
	}
	f.Add(req.Marshal())
	rep := &Message{
		Op:       OpReply,
		SenderHW: link.HWAddr{2, 0, 0, 0, 0, 2},
		SenderIP: ip.Addr{10, 0, 0, 2},
		TargetHW: link.HWAddr{2, 0, 0, 0, 0, 1},
		TargetIP: ip.Addr{10, 0, 0, 1},
	}
	f.Add(rep.Marshal())
	f.Add([]byte{0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			return
		}
		m2, err := Unmarshal(m.Marshal())
		if err != nil {
			t.Fatalf("re-marshaled message failed to parse: %v", err)
		}
		if m2 != m {
			t.Fatalf("round trip changed message: %+v -> %+v", m, m2)
		}
	})
}
