(* Fuzz inputs for the readers: random bytes, and byte-level mutations of
   valid inputs (flips, insertions, deletions, truncations and spliced
   tokens that sit at a parser's edges). A reader must answer every one
   with a value or a typed error, never an exception. The seed is fixed,
   so a failure reproduces. *)

let seed = 23

let byte = QCheck.Gen.(map Char.chr (int_bound 255))

let random_bytes = QCheck.Gen.(string_size ~gen:byte (int_bound 64))

let splice s i t = String.sub s 0 i ^ t ^ String.sub s i (String.length s - i)

let tokens =
  [ "9999999999"; "-1"; "2001"; "1e308"; "nan"; "inf"; "0x1p-3"; "\n"; " ";
    "\""; "["; "]"; "="; "#" ]

let mutate s =
  let open QCheck.Gen in
  let len = String.length s in
  if len = 0 then random_bytes
  else
    int_bound (len - 1) >>= fun i ->
    oneof
      [
        map (fun c -> String.mapi (fun j d -> if j = i then c else d) s) byte;
        map (fun c -> splice s i (String.make 1 c)) byte;
        map
          (fun k ->
            let stop = min len (i + k) in
            String.sub s 0 i ^ String.sub s stop (len - stop))
          (int_range 1 8);
        return (String.sub s 0 i);
        map (splice s i) (oneofl tokens);
      ]

let inputs seeds =
  let open QCheck.Gen in
  let rec mutations k s = if k = 0 then return s else mutate s >>= mutations (k - 1) in
  QCheck.make ~print:(Printf.sprintf "%S")
    (frequency
       [ (1, random_bytes); (4, oneofl seeds >>= fun s -> int_range 1 3 >>= fun k -> mutations k s) ])

(* [check] returns normally on a value or a typed error and fails the
   property itself when an answer is wrong; anything it raises is a bug. *)
let never_raises ~name ~count seeds check =
  (* QCheck draws from a Random.State; this one is seeded, never global. *)
  (* lint: allow no-stdlib-random *)
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |])
    (QCheck.Test.make ~name ~count (inputs seeds) (fun s ->
         match check s with
         | () -> true
         | exception e ->
           QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)))

(* A test input dune copies next to the test executables. *)
let read_file path =
  In_channel.with_open_bin
    (Filename.concat (Filename.dirname Sys.executable_name) path)
    In_channel.input_all
