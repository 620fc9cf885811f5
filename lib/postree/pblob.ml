module Chunk = Fb_chunk.Chunk
module Rolling = Fb_hash.Rolling

type t = Seqtree.t

let store (t : t) = t.store
let root (t : t) = t.root

let params = Rolling.default_blob_params
let max_leaf_bytes = 16 * (1 lsl params.q)

(* Byte-granularity content-defined chunker.  [Rolling.scan] runs to the
   next pattern hit (or the size cap) in one tight loop, so a leaf costs
   one scan and one copy, not a call per byte. *)
let chunker emit =
  let rolling = Rolling.create params and buf = Buffer.create 8192 in
  let cut () =
    emit (Buffer.contents buf);
    Buffer.clear buf;
    Rolling.reset rolling
  in
  let feed s =
    let n = String.length s in
    let rec go i =
      if i < n then begin
        let len = min (max_leaf_bytes - Buffer.length buf) (n - i) in
        let hit = Rolling.scan rolling s i len in
        let stop = if hit < 0 then i + len else hit in
        Buffer.add_substring buf s i (stop - i);
        if hit >= 0 || Buffer.length buf >= max_leaf_bytes then cut ();
        go stop
      end
    in
    go 0
  in
  let pending () = Buffer.length buf > 0 in
  { Seqtree.feed; pending; finish = (fun () -> if pending () then cut ()) }

(* A leaf must have its only pattern hit on its final byte, unless it is
   the last leaf or was cut by the size cap. *)
let check_leaf ~is_last s =
  let n = String.length s in
  match Rolling.scan (Rolling.create params) s 0 n with
  | -1 ->
    if is_last || n >= max_leaf_bytes then Ok ()
    else Error "no pattern and not last"
  | stop when stop = n -> Ok ()
  | stop -> Error (Printf.sprintf "pattern mid-chunk at %d" (stop - 1))

let codec : string Seqtree.codec =
  { name = "Pblob";
    kind = Chunk.Leaf_blob;
    length = String.length;
    decode = Fun.id;
    encode = Fun.id;
    slice = String.sub;
    chunker;
    check_leaf }

let of_string store s = Seqtree.of_run codec store s
let of_root store root = { Seqtree.store; root }
let length t = Seqtree.length codec t
let is_empty (t : t) = t.root = None

let to_string t =
  let buf = Buffer.create (length t) in
  Seqtree.iter_leaves codec t (Buffer.add_string buf);
  Buffer.contents buf

let read t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Pblob.read: range out of bounds";
  String.concat "" (Seqtree.read codec t ~pos ~len)

let splice t ~pos ~remove ~insert = Seqtree.splice codec t ~pos ~remove ~insert
let append t s = splice t ~pos:(length t) ~remove:0 ~insert:s

type range_diff = Seqtree.range_diff = {
  old_pos : int;
  old_len : int;
  new_pos : int;
  new_len : int;
}

let diff t1 t2 = Seqtree.diff codec t1 t2

type proof = string list

let prove t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then
    Error "prove: range out of bounds"
  else Seqtree.prove codec ~tail:false t ~pos ~len

let verify_proof ~root ~pos ~len proof =
  if pos < 0 || len < 0 then Error "proof: negative range"
  else
    match Seqtree.verify codec ~tail:false ~root ~pos ~len proof with
    | Error _ as e -> e
    | Ok runs ->
      let bytes = String.concat "" runs in
      if String.length bytes <> len then Error "proof: range not fully covered"
      else Ok bytes

let chunk_count t = Seqtree.chunk_count codec t
let leaf_sizes t =
  List.map (fun ie -> ie.Seqtree.count) (Seqtree.leaf_row codec t)
let node_hashes = Seqtree.node_hashes
let validate t = Seqtree.validate codec t

let pp fmt (t : t) =
  match t.root with
  | None -> Format.pp_print_string fmt "<empty blob>"
  | Some h ->
    Format.fprintf fmt "<blob root=%a bytes=%d chunks=%d>" Fb_hash.Hash.pp h
      (length t) (chunk_count t)
