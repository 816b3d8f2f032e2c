(* LZ77 with 64 KiB window, 3-byte minimum match, greedy parsing over a
   hash table of 3-byte prefixes. Token stream:
     0x00 <byte>                      literal
     0x01 <varint len> <varint dist>  match (len >= 3, dist >= 1)
   The stream is prefixed with the uncompressed length. *)

let min_match = 3
let max_match = 258
let window = 1 lsl 16
let hash_bits = 15
let hash_size = 1 lsl hash_bits

let hash3 data i =
  let a = Char.code (Bytes.get data i)
  and b = Char.code (Bytes.get data (i + 1))
  and c = Char.code (Bytes.get data (i + 2)) in
  ((a lsl 10) lxor (b lsl 5) lxor c) land (hash_size - 1)

(* Match-finder tables, one pair per domain, reused across calls so a
   call allocates neither. [head] maps a 3-byte hash to the newest
   position with that hash and is all -1 between calls; [prev] chains
   each position to the previous one with the same hash and only grows.
   A call reads [prev.(k)] only for positions [k] it inserted itself, so
   stale slots are never seen, and it restores [head] by clearing the
   hashes it set: O(n) stores instead of a [hash_size] fill. Each call
   thus sees what fresh tables would show it, and emits the same
   bytes. *)
type scratch = { head : int array; mutable prev : int array }

let scratch =
  Gg_par.Pool.Local.create (fun () ->
      { head = Array.make hash_size (-1); prev = [||] })

let compress input =
  let n = Bytes.length input in
  let enc = Codec.Enc.create () in
  Codec.Enc.varint enc n;
  let s = Gg_par.Pool.Local.get scratch in
  if Array.length s.prev < n then
    s.prev <- Array.make (max n (2 * Array.length s.prev)) (-1);
  let head = s.head and prev = s.prev in
  let match_len i j =
    let limit = min max_match (n - i) in
    let rec go k =
      if k < limit && Bytes.get input (i + k) = Bytes.get input (j + k) then
        go (k + 1)
      else k
    in
    go 0
  in
  let insert i =
    if i + min_match <= n then begin
      let h = hash3 input i in
      prev.(i) <- head.(h);
      head.(h) <- i
    end
  in
  let parse () =
    let i = ref 0 in
    while !i < n do
      let best_len = ref 0 and best_pos = ref (-1) in
      if !i + min_match <= n then begin
        let h = hash3 input !i in
        let candidate = ref head.(h) in
        let tries = ref 32 in
        while !candidate >= 0 && !tries > 0 do
          if !i - !candidate <= window then begin
            let len = match_len !i !candidate in
            if len > !best_len then begin
              best_len := len;
              best_pos := !candidate
            end;
            candidate := prev.(!candidate);
            decr tries
          end
          else begin
            candidate := -1 (* beyond window: chain only gets older *)
          end
        done
      end;
      if !best_len >= min_match then begin
        Codec.Enc.byte enc 0x01;
        Codec.Enc.varint enc !best_len;
        Codec.Enc.varint enc (!i - !best_pos);
        for k = !i to !i + !best_len - 1 do
          insert k
        done;
        i := !i + !best_len
      end
      else begin
        Codec.Enc.byte enc 0x00;
        Codec.Enc.byte enc (Char.code (Bytes.get input !i));
        insert !i;
        incr i
      end
    done
  in
  (* Every position [k <= n - min_match] is inserted, so these are all
     the hashes the parse can have set; clearing them even when the
     parse raised keeps a dirty table from changing later output. *)
  let reset () =
    for k = 0 to n - min_match do
      head.(hash3 input k) <- -1
    done
  in
  Fun.protect ~finally:reset parse;
  Codec.Enc.to_bytes enc

let decompress input =
  let dec = Codec.Dec.of_bytes input in
  try
    let n = Codec.Dec.varint dec in
    let out = Buffer.create n in
    while Buffer.length out < n do
      match Codec.Dec.byte dec with
      | 0x00 -> Buffer.add_char out (Char.chr (Codec.Dec.byte dec))
      | 0x01 ->
        let len = Codec.Dec.varint dec in
        let dist = Codec.Dec.varint dec in
        if dist <= 0 || dist > Buffer.length out || len < min_match then
          invalid_arg "Compress.decompress: corrupt stream";
        let start = Buffer.length out - dist in
        (* Overlapping copies are meaningful (run-length encoding). *)
        for k = 0 to len - 1 do
          Buffer.add_char out (Buffer.nth out (start + k))
        done
      | _ -> invalid_arg "Compress.decompress: bad token"
    done;
    if Buffer.length out <> n then
      invalid_arg "Compress.decompress: length mismatch";
    Buffer.to_bytes out
  with Codec.Dec.Truncated ->
    invalid_arg "Compress.decompress: truncated stream"

let ratio b =
  let n = Bytes.length b in
  if n = 0 then 1.0
  else float_of_int (Bytes.length (compress b)) /. float_of_int n
