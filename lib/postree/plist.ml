module Codec = Fb_codec.Codec
module Chunk = Fb_chunk.Chunk
module Rolling = Fb_hash.Rolling

type t = Seqtree.t

let store (t : t) = t.store
let root (t : t) = t.root

(* Leaves hold whole elements, cut by the node chunker at element
   granularity. *)
let params = Rolling.default_node_params
let max_leaf_bytes = 16 * (1 lsl params.q)
let encode_item item = Codec.to_string Codec.bytes item

let check_leaf ~is_last items =
  let rolling = Rolling.create params in
  let rec go bytes = function
    | [] -> Ok ()
    | item :: rest ->
      let enc = encode_item item in
      let hit = Rolling.feed_string rolling enc in
      let bytes = bytes + String.length enc in
      if rest <> [] then
        if hit then Error "pattern before final item" else go bytes rest
      else if hit || is_last || bytes >= max_leaf_bytes then Ok ()
      else Error "unjustified boundary"
  in
  go 0 items

let codec : string list Seqtree.codec =
  { name = "Plist";
    kind = Chunk.Leaf_list;
    length = List.length;
    decode =
      (fun payload ->
        let read r = Codec.read_list r Codec.read_bytes in
        match Codec.of_string read payload with
        | Ok items -> items
        | Error e -> raise (Postree.Corrupt ("list leaf: " ^ e)));
    encode =
      (fun items ->
        let w = Codec.writer () in
        Codec.varint w (List.length items);
        List.iter (Codec.bytes w) items;
        Codec.contents w);
    slice =
      (fun items off len ->
        List.filteri (fun i _ -> i >= off && i < off + len) items);
    chunker =
      (fun emit ->
        let ch = Chunker.create ~params ~emit () in
        let add item = Chunker.add ch item (encode_item item) in
        { Seqtree.feed = List.iter add;
          pending = (fun () -> Chunker.pending ch);
          finish = (fun () -> Chunker.finish ch) });
    check_leaf }

let of_list store items = Seqtree.of_run codec store items
let of_root store root = { Seqtree.store; root }
let length t = Seqtree.length codec t
let is_empty (t : t) = t.root = None
let iter f t = Seqtree.iter_leaves codec t (List.iter f)

let fold f acc t =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) t;
  !acc

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

let get t n =
  if n < 0 then None
  else
    match Seqtree.read codec t ~pos:n ~len:1 with
    | [ [ x ] ] -> Some x
    | _ -> None

let splice t ~pos ~remove ~insert = Seqtree.splice codec t ~pos ~remove ~insert

let set t n x =
  if n < 0 || n >= length t then invalid_arg "Plist.set: out of bounds";
  splice t ~pos:n ~remove:1 ~insert:[ x ]

let push_back t x = splice t ~pos:(length t) ~remove:0 ~insert:[ x ]

type range_diff = Seqtree.range_diff = {
  old_pos : int;
  old_len : int;
  new_pos : int;
  new_len : int;
}

(* The leaf-aligned window, then equal elements trimmed at both ends. *)
let diff t1 t2 =
  Option.map
    (fun d ->
      let window t pos len =
        Array.of_list (List.concat (Seqtree.read codec t ~pos ~len))
      in
      let m1 = window t1 d.old_pos d.old_len
      and m2 = window t2 d.new_pos d.new_len in
      let l1 = Array.length m1 and l2 = Array.length m2 in
      let rec pre i =
        if i < l1 && i < l2 && String.equal m1.(i) m2.(i) then pre (i + 1)
        else i
      in
      let p = pre 0 in
      let rec suf k =
        if l1 - 1 - k >= p && l2 - 1 - k >= p
           && String.equal m1.(l1 - 1 - k) m2.(l2 - 1 - k)
        then suf (k + 1)
        else k
      in
      let s = suf 0 in
      { old_pos = d.old_pos + p;
        old_len = l1 - p - s;
        new_pos = d.new_pos + p;
        new_len = l2 - p - s })
    (Seqtree.diff codec t1 t2)

type proof = string list

(* An index proves through the leaf holding it; an out-of-range index
   routes through last children to the last leaf, which proves the bound
   (like absence proofs in the keyed tree). *)
let prove t n =
  if n < 0 then Error "prove: negative index"
  else Seqtree.prove codec ~tail:true t ~pos:n ~len:1

let verify_proof ~root n proof =
  if n < 0 then Ok None
  else
    match Seqtree.verify codec ~tail:true ~root ~pos:n ~len:1 proof with
    | Error _ as e -> e
    | Ok [ [ x ] ] -> Ok (Some x)
    | Ok [ [] ] -> Ok None
    | Ok _ -> Error "proof: not a single leaf path"

let chunk_count t = Seqtree.chunk_count codec t
let node_hashes = Seqtree.node_hashes
let validate t = Seqtree.validate codec t

let pp fmt (t : t) =
  match t.root with
  | None -> Format.pp_print_string fmt "<empty list>"
  | Some h ->
    Format.fprintf fmt "<list root=%a items=%d chunks=%d>" Fb_hash.Hash.pp h
      (length t) (chunk_count t)
