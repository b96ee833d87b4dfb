// Command qarma64 exercises the QARMA-64 block cipher underlying the
// pointer-authentication model: it verifies the published known-
// answer vector and encrypts or decrypts user-supplied blocks.
//
// Usage:
//
//	qarma64 -check
//	qarma64 [-dec] [-rounds 7] [-sbox 0] -w0 HEX -k0 HEX -tweak HEX BLOCK
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"pacstack/internal/qarma"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qarma64: ")
	check := flag.Bool("check", false, "verify the published sigma0 test vectors (r = 5, 6, 7)")
	dec := flag.Bool("dec", false, "decrypt instead of encrypt")
	rounds := flag.Int("rounds", qarma.DefaultRounds, fmt.Sprintf("forward round count r (1..%d)", qarma.MaxRounds))
	sbox := flag.Int("sbox", 0, "S-box variant (0, 1 or 2)")
	w0 := flag.String("w0", "", "whitening key half (hex)")
	k0 := flag.String("k0", "", "core key half (hex)")
	tweak := flag.String("tweak", "0", "tweak (hex)")
	flag.Parse()

	if *check {
		runCheck()
		return
	}
	if flag.NArg() != 1 || *w0 == "" || *k0 == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *sbox < 0 || *sbox > 2 {
		log.Printf("-sbox %d: want 0, 1 or 2", *sbox)
		os.Exit(2)
	}
	if *rounds < 1 || *rounds > qarma.MaxRounds {
		log.Printf("-rounds %d: want 1..%d", *rounds, qarma.MaxRounds)
		os.Exit(2)
	}
	c := qarma.New(parseHex(*w0), parseHex(*k0), qarma.Config{
		Rounds: *rounds,
		Sbox:   qarma.Sigma(*sbox),
	})
	block := parseHex(flag.Arg(0))
	t := parseHex(*tweak)
	if *dec {
		fmt.Printf("%016x\n", c.Decrypt(block, t))
	} else {
		fmt.Printf("%016x\n", c.Encrypt(block, t))
	}
}

func parseHex(s string) uint64 {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		log.Fatalf("bad hex value %q: %v", s, err)
	}
	return v
}

func runCheck() {
	// The QARMA specification's sigma0 vectors at r = 5, 6 and 7.
	const (
		w0 uint64 = 0x84be85ce9804e94b
		k0 uint64 = 0xec2802d4e0a488e9
		pt uint64 = 0xfb623599da6e8127
		tw uint64 = 0x477d469dec0b8762
	)
	vectors := []struct {
		rounds int
		want   uint64
	}{
		{5, 0x3ee99a6c82af0c38},
		{6, 0x9f5c41ec525603c9},
		{7, 0xbcaf6c89de930765},
	}
	for _, v := range vectors {
		c := qarma.New(w0, k0, qarma.Config{Rounds: v.rounds, Sbox: qarma.Sigma0})
		got := c.Encrypt(pt, tw)
		fmt.Printf("QARMA-64 sigma0 r=%d: enc(%016x, %016x) = %016x (want %016x)\n",
			v.rounds, pt, tw, got, v.want)
		if got != v.want {
			log.Fatal("MISMATCH against the published test vector")
		}
		if back := c.Decrypt(got, tw); back != pt {
			log.Fatalf("decrypt mismatch: %016x", back)
		}
	}
	fmt.Println("OK: all three published vectors match and decryption inverts encryption")
}
