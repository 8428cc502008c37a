(* Output digests for the default workload seed (1), taken when the
   benchmark was defined: MD5 of each ABC batch's accepted list and of
   each first-time synth payload, in operation order. A run checks every
   pinned operation it reaches; the untraced run prints the digests of its
   first eight operations. *)

let fit =
  [
    "fd218a166208a95b9af167c9b02fb938"; "916b84deef910deea24648ec0bb20b5b";
    "21208f3700e049009a196a282ac0013a"; "bf9b57a3acc77bdad6bf3d843feab7c9";
    "ceb76fe298e6f084b6d93cdbad398274"; "7f17caf58d84552c25a57d19de971d7e";
  ]

let serve =
  [
    "ceace86b873e5e10e5302a00a22103fa"; "43db0e487c92922abfccf7dda9d6b30c";
    "6349b3a0c8a5bbf6f031882f71c78efd"; "5852d0caa6a7852087618deed1ed2fdf";
    "18f50b8aeaffcb3f8ec6cd1b95123f3f"; "5a61d528af72f2a245f9767bf1d37c44";
    "1b21453d49ea07df3ed7a67a8ebe49be"; "ef3b8b8b894e3aba71bb331a560a8bf9";
  ]
