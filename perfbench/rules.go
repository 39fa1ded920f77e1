package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// fwRule is one generated IPFilter rule, held in the benchmark's own
// form so admit/deny outcomes come from its own first-match scan.
type fwRule struct {
	allow bool
	any   bool   // matches every packet ("deny all")
	src   uint32 // src host
	proto byte
	dport uint16
}

func (r fwRule) text() string {
	if r.any {
		return "deny all"
	}
	a := [4]byte{byte(r.src >> 24), byte(r.src >> 16), byte(r.src >> 8), byte(r.src)}
	return fmt.Sprintf("allow src host %d.%d.%d.%d && udp && dst port %d", a[0], a[1], a[2], a[3], r.dport)
}

// Rule pool: admits are drawn from hostPool source hosts x 16 UDP
// destination ports, so a 5000-rule set repeats itself the way long
// real ACLs do, and a final "deny all" closes it. This is the fusion
// experiment's generator.
const (
	fwHostPool  = 600
	fwPortBase  = 1000
	fwPortCount = 16
)

func fwHost(h int) uint32 { return ip4([4]byte{10, 9, byte(h / 250), byte(1 + h%250)}) }

// genRules draws n admit rules and appends the default deny.
func genRules(r *rand.Rand, n int) []fwRule {
	rules := make([]fwRule, 0, n+1)
	for i := 0; i < n; i++ {
		rules = append(rules, fwRule{
			allow: true,
			src:   fwHost(r.Intn(fwHostPool)),
			proto: protoUDP,
			dport: uint16(fwPortBase + r.Intn(fwPortCount)),
		})
	}
	return append(rules, fwRule{any: true})
}

// rulesArg renders the rules as an IPFilter configuration string.
func rulesArg(rules []fwRule) string {
	texts := make([]string, len(rules))
	for i, r := range rules {
		texts[i] = r.text()
	}
	return strings.Join(texts, ", ")
}

// firstMatch scans the rules in order and returns the first matching
// rule's verdict; a packet no rule matches is denied.
func firstMatch(rules []fwRule, src uint32, proto byte, dport uint16) bool {
	for _, r := range rules {
		if r.any || (r.src == src && r.proto == proto && r.dport == dport) {
			return r.allow
		}
	}
	return false
}
