package netaddr

import (
	"testing"
	"testing/quick"
)

func TestIPv4RoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "10.0.0.1", "192.168.255.254", "255.255.255.255"}
	for _, s := range cases {
		ip, err := ParseIPv4(s)
		if err != nil {
			t.Fatalf("ParseIPv4(%q): %v", s, err)
		}
		if got := ip.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestIPv4ParseErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3"} {
		if _, err := ParseIPv4(s); err == nil {
			t.Errorf("ParseIPv4(%q) succeeded, want error", s)
		}
	}
}

func TestIPv4PropertyRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		ip := IPv4(v)
		back, err := ParseIPv4(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMakeIPv4(t *testing.T) {
	if got := MakeIPv4(10, 1, 2, 3).String(); got != "10.1.2.3" {
		t.Fatalf("MakeIPv4 = %s", got)
	}
}

func TestIn(t *testing.T) {
	ip := MustParseIPv4("10.1.2.3")
	if !ip.In(MustParseIPv4("10.1.0.0"), 0xffff0000) {
		t.Error("10.1.2.3 not in 10.1/16")
	}
	if ip.In(MustParseIPv4("10.2.0.0"), 0xffff0000) {
		t.Error("10.1.2.3 in 10.2/16")
	}
	if !ip.In(0, 0) {
		t.Error("wildcard mask did not match")
	}
	if !ip.In(ip, 0xffffffff) {
		t.Error("exact mask did not match itself")
	}
}

func TestMAC(t *testing.T) {
	m := MakeMAC(0x01020304)
	if got := m.String(); got != "02:00:01:02:03:04" {
		t.Fatalf("MAC string = %s", got)
	}
	if m.IsBroadcast() {
		t.Error("unicast MAC reported broadcast")
	}
	if !Broadcast.IsBroadcast() {
		t.Error("broadcast MAC not detected")
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: MakeIPv4(1, 2, 3, 4), Dst: MakeIPv4(5, 6, 7, 8), Proto: ProtoTCP, SrcPort: 1234, DstPort: 80}
	r := k.Reverse()
	if r.Src != k.Dst || r.Dst != k.Src || r.SrcPort != k.DstPort || r.DstPort != k.SrcPort {
		t.Fatalf("Reverse = %+v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse is not identity")
	}
}

func TestFlowKeyHashDistinct(t *testing.T) {
	// Hash must distinguish flows that differ in a single field.
	base := FlowKey{Src: MakeIPv4(1, 2, 3, 4), Dst: MakeIPv4(5, 6, 7, 8), Proto: ProtoTCP, SrcPort: 1234, DstPort: 80}
	variants := []FlowKey{
		{Src: base.Src + 1, Dst: base.Dst, Proto: base.Proto, SrcPort: base.SrcPort, DstPort: base.DstPort},
		{Src: base.Src, Dst: base.Dst + 1, Proto: base.Proto, SrcPort: base.SrcPort, DstPort: base.DstPort},
		{Src: base.Src, Dst: base.Dst, Proto: ProtoUDP, SrcPort: base.SrcPort, DstPort: base.DstPort},
		{Src: base.Src, Dst: base.Dst, Proto: base.Proto, SrcPort: base.SrcPort + 1, DstPort: base.DstPort},
		{Src: base.Src, Dst: base.Dst, Proto: base.Proto, SrcPort: base.SrcPort, DstPort: base.DstPort + 1},
	}
	h := base.Hash()
	for i, v := range variants {
		if v.Hash() == h {
			t.Errorf("variant %d collides with base", i)
		}
	}
}

func TestHashUniformity(t *testing.T) {
	// ECMP bucket selection must spread sequentially numbered flows evenly.
	const buckets, flows = 8, 8000
	var count [buckets]int
	for i := 0; i < flows; i++ {
		k := FlowKey{Src: IPv4(i), Dst: MakeIPv4(10, 0, 0, 1), Proto: ProtoTCP, SrcPort: uint16(1000 + i), DstPort: 80}
		count[k.Hash()%buckets]++
	}
	for b, c := range count {
		if c < flows/buckets*70/100 || c > flows/buckets*130/100 {
			t.Errorf("bucket %d has %d flows, want ~%d", b, c, flows/buckets)
		}
	}
}

func TestFlowKeyString(t *testing.T) {
	k := FlowKey{Src: MakeIPv4(1, 2, 3, 4), Dst: MakeIPv4(5, 6, 7, 8), Proto: ProtoTCP, SrcPort: 1234, DstPort: 80}
	want := "1.2.3.4:1234->5.6.7.8:80/6"
	if got := k.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
