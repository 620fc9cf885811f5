module Codec = Fb_codec.Codec
module Chunk = Fb_chunk.Chunk
module Store = Fb_chunk.Store
module Hash = Fb_hash.Hash

type index_entry = { child : Hash.t; count : int }
type t = { store : Store.t; root : Hash.t option }

type range_diff = {
  old_pos : int;
  old_len : int;
  new_pos : int;
  new_len : int;
}

type 'r leaf_chunker = {
  feed : 'r -> unit;
  pending : unit -> bool;
  finish : unit -> unit;
}

type 'r codec = {
  name : string;
  kind : Chunk.kind;
  length : 'r -> int;
  decode : string -> 'r;
  encode : 'r -> string;
  slice : 'r -> int -> int -> 'r;
  chunker : ('r -> unit) -> 'r leaf_chunker;
  check_leaf : is_last:bool -> 'r -> (unit, string) result;
}

(* ---------------------------- index nodes ----------------------------- *)

let encode_index_entry w ie =
  Codec.hash w ie.child;
  Codec.varint w ie.count

let decode_index_entry r =
  let child = Codec.read_hash r in
  let count = Codec.read_varint r in
  { child; count }

let index_chunk ies =
  let w = Codec.writer () in
  Codec.varint w (List.length ies);
  List.iter (encode_index_entry w) ies;
  Chunk.v Chunk.Seq_index (Codec.contents w)

(* Only called on [Seq_index] chunks. *)
let decode_index chunk =
  match
    Codec.of_string
      (fun r -> Codec.read_list r decode_index_entry)
      chunk.Chunk.payload
  with
  | Ok ies -> ies
  | Error e -> raise (Postree.Corrupt e)

let sum_counts ies = List.fold_left (fun a ie -> a + ie.count) 0 ies

let leaf_run c chunk =
  if chunk.Chunk.kind = c.kind then c.decode chunk.Chunk.payload
  else
    raise
      (Postree.Corrupt
         (Printf.sprintf "expected %s chunk, got %s"
            (Chunk.kind_to_string c.kind)
            (Chunk.kind_to_string chunk.Chunk.kind)))

(* Sequence trees cache the chunk value itself: decoding the payload is
   cheap per kind, but [Store.get] re-parses and copies the encoded bytes
   on every call. *)
let chunk_cache : Chunk.t Node_cache.t = Node_cache.create ~name:"seqtree"

let read_chunk store h =
  match Node_cache.find_live chunk_cache store h with
  | Some c -> c
  | None ->
    (match Store.get store h with
     | Some c ->
       Node_cache.add chunk_cache h c;
       c
     | None -> raise (Postree.Corrupt ("missing chunk " ^ Hash.to_hex h)))

let params = Fb_hash.Rolling.default_node_params

let chunk_index_level store ies =
  let out = ref [] in
  let emit items =
    let id = Store.put store (index_chunk items) in
    out := { child = id; count = sum_counts items } :: !out
  in
  let ch = Chunker.create ~params ~emit () in
  List.iter
    (fun ie -> Chunker.add ch ie (Codec.to_string encode_index_entry ie))
    ies;
  Chunker.finish ch;
  List.rev !out

let rec build_up store row =
  match row with
  | [] -> None
  | [ ie ] -> Some ie.child
  | _ -> build_up store (chunk_index_level store row)

(* ------------------------------- build -------------------------------- *)

(* A leaf chunker that stores each cut leaf and records its entry. *)
let leaf_chunker c store out =
  c.chunker (fun run ->
      let id = Store.put store (Chunk.v c.kind (c.encode run)) in
      out := { child = id; count = c.length run } :: !out)

let of_run c store run =
  let out = ref [] in
  let ch = leaf_chunker c store out in
  ch.feed run;
  ch.finish ();
  { store; root = build_up store (List.rev !out) }

let node_count c chunk =
  match chunk.Chunk.kind with
  | Chunk.Seq_index -> sum_counts (decode_index chunk)
  | _ -> c.length (leaf_run c chunk)

let length c t =
  match t.root with None -> 0 | Some h -> node_count c (read_chunk t.store h)

let leaf_row c t =
  let rec rows h =
    let chunk = read_chunk t.store h in
    match chunk.Chunk.kind with
    | Chunk.Seq_index -> (
      let ies = decode_index chunk in
      match ies with
      | [] -> []
      | first :: _ ->
        let first_chunk = read_chunk t.store first.child in
        (match first_chunk.Chunk.kind with
         | Chunk.Seq_index -> List.concat_map (fun ie -> rows ie.child) ies
         | _ -> ies))
    | _ -> [ { child = h; count = node_count c chunk } ]
  in
  match t.root with None -> [] | Some h -> rows h

let leaf_at c t ie = leaf_run c (read_chunk t.store ie.child)
let iter_leaves c t f = List.iter (fun ie -> f (leaf_at c t ie)) (leaf_row c t)
let chunk_count c t = List.length (leaf_row c t)

(* ------------------------------- splice ------------------------------- *)

let splice c t ~pos ~remove ~insert =
  let total = length c t in
  if pos < 0 || remove < 0 || pos + remove > total then
    invalid_arg (c.name ^ ".splice: range out of bounds");
  match t.root with
  | None -> of_run c t.store insert
  | Some _ ->
    let row = Array.of_list (leaf_row c t) in
    let n = Array.length row in
    let starts = Array.make n 0 in
    for i = 1 to n - 1 do
      starts.(i) <- starts.(i - 1) + row.(i - 1).count
    done;
    (* Leaf containing element [p]; for p = total, the last leaf. *)
    let leaf_of p =
      let rec go i =
        if i + 1 >= n || p < starts.(i + 1) then i else go (i + 1)
      in
      go 0
    in
    let i0 = leaf_of pos in
    let old_end = pos + remove in
    let j = leaf_of (min old_end (total - 1)) in
    (* [j] is now the first leaf whose elements (partly) survive past the
       removed range, or [n] if the removal reaches the end. *)
    let j = if old_end >= starts.(j) + row.(j).count then j + 1 else j in
    let out = ref [] in
    let ch = leaf_chunker c t.store out in
    ch.feed (c.slice (leaf_at c t row.(i0)) 0 (pos - starts.(i0)));
    ch.feed insert;
    if j < n then begin
      let skip = old_end - starts.(j) in
      ch.feed (c.slice (leaf_at c t row.(j)) skip (row.(j).count - skip))
    end;
    (* Re-chunk further leaves until a boundary realigns with the original
       layout, then reuse the remaining leaves verbatim. *)
    let rec resync k =
      if k >= n then (ch.finish (); [])
      else if not (ch.pending ()) then Array.to_list (Array.sub row k (n - k))
      else begin
        ch.feed (leaf_at c t row.(k));
        resync (k + 1)
      end
    in
    let suffix = resync (j + 1) in
    let prefix = Array.to_list (Array.sub row 0 i0) in
    { t with root = build_up t.store (prefix @ List.rev !out @ suffix) }

(* -------------------------------- diff -------------------------------- *)

let diff c t1 t2 =
  if Option.equal Hash.equal t1.root t2.root then None
  else begin
    let r1 = Array.of_list (leaf_row c t1)
    and r2 = Array.of_list (leaf_row c t2) in
    let n1 = Array.length r1 and n2 = Array.length r2 in
    let eq i j = Hash.equal r1.(i).child r2.(j).child in
    let rec pre i = if i < n1 && i < n2 && eq i i then pre (i + 1) else i in
    let p = pre 0 in
    let rec suf k =
      if n1 - 1 - k >= p && n2 - 1 - k >= p && eq (n1 - 1 - k) (n2 - 1 - k)
      then suf (k + 1)
      else k
    in
    let s = suf 0 in
    let sum r lo hi =
      let acc = ref 0 in
      for i = lo to hi - 1 do
        acc := !acc + r.(i).count
      done;
      !acc
    in
    Some
      { old_pos = sum r1 0 p;
        old_len = sum r1 p (n1 - s);
        new_pos = sum r2 0 p;
        new_len = sum r2 p (n2 - s) }
  end

(* ------------------------- integrity and walks ------------------------ *)

let node_hashes t =
  let acc = ref [] in
  let rec go h =
    acc := h :: !acc;
    let chunk = read_chunk t.store h in
    match chunk.Chunk.kind with
    | Chunk.Seq_index ->
      List.iter (fun ie -> go ie.child) (decode_index chunk)
    | _ -> ()
  in
  (match t.root with None -> () | Some h -> go h);
  List.rev !acc

let validate c t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let ( let* ) = Result.bind in
  let fetch h =
    match t.store.Store.get_raw h with
    | None -> err "missing chunk %s" (Hash.to_hex h)
    | Some raw when not (Hash.equal (Hash.of_string raw) h) ->
      err "chunk %s: tampered content" (Hash.to_hex h)
    | Some raw ->
      Result.map_error
        (Printf.sprintf "chunk %s: %s" (Hash.to_hex h))
        (Chunk.decode raw)
  in
  (* Level by level, so a leaf knows whether it ends its row.  Each node
     carries the count its parent's entry claims for it. *)
  let rec check_level = function
    | [] -> Ok ()
    | level ->
      let rec per_node next = function
        | [] -> check_level (List.rev next)
        | (h, claimed) :: rest ->
          let* chunk = fetch h in
          let* count, next =
            match chunk.Chunk.kind with
            | Chunk.Seq_index ->
              let ies = decode_index chunk in
              Ok
                ( sum_counts ies,
                  List.rev_append
                    (List.map (fun ie -> (ie.child, Some ie.count)) ies)
                    next )
            | _ ->
              let run = leaf_run c chunk in
              let* () =
                Result.map_error
                  (Printf.sprintf "leaf %s: %s" (Hash.to_hex h))
                  (c.check_leaf ~is_last:(rest = []) run)
              in
              Ok (c.length run, next)
          in
          (match claimed with
           | Some n when n <> count ->
             err "child %s: count %d, index says %d" (Hash.to_hex h) count n
           | _ -> per_node next rest)
      in
      per_node [] level
  in
  match t.root with
  | None -> Ok ()
  | Some h -> ( try check_level [ (h, None) ] with Postree.Corrupt m -> Error m)

(* The one range walk: pre-order over the chunks overlapping
   [pos, pos+len) (or, with [tail], past the end through last children),
   handing each leaf's run, sliced to the range, to [leaf]. *)
let walk c ~fetch ~tail ~pos ~len ~leaf root =
  let rec go h start =
    let chunk = fetch h in
    match chunk.Chunk.kind with
    | Chunk.Seq_index ->
      let rec children start = function
        | [] -> ()
        | ie :: rest ->
          let stop = start + ie.count in
          let overlaps = start < pos + len && pos < stop in
          if overlaps || (tail && rest = [] && pos >= stop) then
            go ie.child start;
          children stop rest
      in
      children start (decode_index chunk)
    | _ ->
      let run = leaf_run c chunk in
      let lo = max pos start and hi = min (pos + len) (start + c.length run) in
      leaf
        (if lo < hi then c.slice run (lo - start) (hi - lo)
         else c.slice run 0 0)
  in
  go root 0

let read c t ~pos ~len =
  let out = ref [] in
  (match t.root with
   | None -> ()
   | Some root ->
     walk c ~fetch:(read_chunk t.store) ~tail:false ~pos ~len
       ~leaf:(fun r -> out := r :: !out)
       root);
  List.rev !out

let prove c ~tail t ~pos ~len =
  match t.root with
  | None -> Error "cannot prove against an empty tree"
  | Some root -> (
    let out = ref [] in
    let fetch h =
      match t.store.Store.get_raw h with
      | None -> raise (Postree.Corrupt ("missing chunk " ^ Hash.to_hex h))
      | Some raw ->
        out := raw :: !out;
        read_chunk t.store h
    in
    match walk c ~fetch ~tail ~pos ~len ~leaf:ignore root with
    | () -> Ok (List.rev !out)
    | exception Postree.Corrupt m -> Error m)

let verify c ~tail ~root ~pos ~len proof =
  let chunks = ref proof and runs = ref [] in
  let fetch expected =
    match !chunks with
    | [] -> raise (Postree.Corrupt "truncated path")
    | raw :: rest ->
      chunks := rest;
      if not (Hash.equal (Hash.of_string raw) expected) then
        raise
          (Postree.Corrupt "chunk does not hash to the id its parent names");
      (match Chunk.decode raw with
       | Ok chunk -> chunk
       | Error e -> raise (Postree.Corrupt e))
  in
  let leaf r = runs := r :: !runs in
  match walk c ~fetch ~tail ~pos ~len ~leaf root with
  | () when !chunks <> [] -> Error "proof: trailing chunks"
  | () -> Ok (List.rev !runs)
  | exception Postree.Corrupt m -> Error ("proof: " ^ m)
