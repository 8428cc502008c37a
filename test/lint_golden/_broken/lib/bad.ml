(* Planted syntax error: cold_lint must exit 2 and name this file and the
   line the parser stops on, rather than skip or half-lint the file. *)
let ok = Random.int 5

let broken = (ok + )

let after = ok
