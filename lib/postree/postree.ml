module Codec = Fb_codec.Codec
module Chunk = Fb_chunk.Chunk
module Store = Fb_chunk.Store
module Hash = Fb_hash.Hash
module Rolling = Fb_hash.Rolling
module Obs = Fb_obs.Obs

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* Work done by [update], summed over every instantiation: encoded bytes
   of the chunks it builds (each one is SHA-256'd), and old child ids it
   copies into rebuilt index nodes, each standing for a sub-tree kept by
   reference without being read, encoded, hashed or put. *)
let bytes_hashed = Obs.counter "postree.update.bytes_hashed"
let chunks_reused = Obs.counter "postree.update.chunks_reused"

module type ENTRY = Postree_intf.ENTRY
module type S = Postree_intf.S

module Make (E : ENTRY) = struct
  type entry = E.t
  type key = E.key
  type t = { store : Store.t; root : Hash.t option }

  type edit = Put of E.t | Remove of E.key

  type change =
    | Added of E.t
    | Removed of E.t
    | Modified of E.t * E.t

  let change_key = function
    | Added e | Removed e | Modified (e, _) -> E.key e

  let params = Rolling.default_node_params
  let max_node_bytes = 16 * (1 lsl params.q)

  (* Trace span names, computed once per instantiation so the hot paths
     only pay a pointer pass when tracing is on. *)
  let kind_label = Chunk.kind_to_string E.leaf_kind
  let span_build = "postree.build(" ^ kind_label ^ ")"
  let span_update = "postree.update(" ^ kind_label ^ ")"
  let span_find = "postree.find(" ^ kind_label ^ ")"
  let span_diff = "postree.diff(" ^ kind_label ^ ")"
  let span_merge = "postree.merge(" ^ kind_label ^ ")"

  (* ---------------- node encoding ---------------- *)

  type index_entry = { split : E.key; child : Hash.t; count : int }

  type node = Leaf of E.t list | Index of index_entry list

  let encode_entry e = Codec.to_string E.encode e

  let encode_index_entry w ie =
    E.encode_key w ie.split;
    Codec.hash w ie.child;
    Codec.varint w ie.count

  let decode_index_entry r =
    let split = E.decode_key r in
    let child = Codec.read_hash r in
    let count = Codec.read_varint r in
    { split; child; count }

  let leaf_chunk entries =
    let w = Codec.writer () in
    Codec.varint w (List.length entries);
    List.iter (E.encode w) entries;
    Chunk.v E.leaf_kind (Codec.contents w)

  let index_chunk ies =
    let w = Codec.writer () in
    Codec.varint w (List.length ies);
    List.iter (encode_index_entry w) ies;
    Chunk.v Chunk.Index (Codec.contents w)

  let decode_node chunk =
    match chunk.Chunk.kind with
    | k when Chunk.equal_kind k E.leaf_kind ->
      (match Codec.of_string (fun r -> Codec.read_list r E.decode)
               chunk.Chunk.payload with
       | Ok entries -> Leaf entries
       | Error e -> corrupt "leaf decode: %s" e)
    | Chunk.Index ->
      (match Codec.of_string (fun r -> Codec.read_list r decode_index_entry)
               chunk.Chunk.payload with
       | Ok ies -> Index ies
       | Error e -> corrupt "index decode: %s" e)
    | k ->
      corrupt "unexpected chunk kind %s (wanted %s or index)"
        (Chunk.kind_to_string k)
        (Chunk.kind_to_string E.leaf_kind)

  (* One decoded-node cache per entry type (functor instantiation), shared
     by every tree of that type.  Containment is by chunk identity, so
     trees over different stores can share it safely: [find_live] only
     serves entries still present in the asking store. *)
  let node_cache : node Node_cache.t =
    Node_cache.create ~name:("postree." ^ kind_label)

  let read_node store h =
    match Node_cache.find_live node_cache store h with
    | Some node -> node
    | None ->
      (match Store.get store h with
       | None -> corrupt "missing chunk %s" (Hash.to_hex h)
       | Some chunk ->
         let node = decode_node chunk in
         Node_cache.add node_cache h node;
         node)

  (* ---------------- construction ---------------- *)

  let empty store = { store; root = None }
  let of_root store root = { store; root }
  let store t = t.store
  let root t = t.root
  let is_empty t = t.root = None

  let last_exn = function
    | [] -> invalid_arg "last_exn"
    | l -> List.nth l (List.length l - 1)

  (* What building and updating need to know about the items of one level:
     entries at the leaves, index entries above. *)
  type 'a level = {
    key_of : 'a -> E.key;
    encode_item : 'a -> string;
    count_of : 'a -> int;
    mk_chunk : 'a list -> Chunk.t;
    to_node : 'a list -> node;
    items_of : Hash.t -> node -> 'a list;
  }

  let leaf_level =
    { key_of = E.key;
      encode_item = encode_entry;
      count_of = (fun _ -> 1);
      mk_chunk = leaf_chunk;
      to_node = (fun es -> Leaf es);
      items_of =
        (fun h -> function
          | Leaf es -> es
          | Index _ -> corrupt "expected leaf at %s" (Hash.to_hex h)) }

  let index_level =
    { key_of = (fun ie -> ie.split);
      encode_item = (fun ie -> Codec.to_string encode_index_entry ie);
      count_of = (fun ie -> ie.count);
      mk_chunk = index_chunk;
      to_node = (fun ies -> Index ies);
      items_of =
        (fun h -> function
          | Index ies -> ies
          | Leaf _ -> corrupt "expected index node at %s" (Hash.to_hex h)) }

  (* The parent's index entry for a node holding [items] stored as [id]. *)
  let entry_of lvl items id =
    { split = lvl.key_of (last_exn items);
      child = id;
      count = List.fold_left (fun a it -> a + lvl.count_of it) 0 items }

  (* Chunk a level's items into nodes; return one index entry per node. *)
  let chunk_level lvl put items =
    let out = ref [] in
    let emit items =
      out := entry_of lvl items (put (lvl.mk_chunk items)) :: !out
    in
    let ch = Chunker.create ~params ~max_bytes:max_node_bytes ~emit () in
    List.iter (fun it -> Chunker.add ch it (lvl.encode_item it)) items;
    Chunker.finish ch;
    List.rev !out

  (* An index entry ends a node it starts, whatever child it names, when
     its split key alone fires the pattern or the entry alone fills a
     node. *)
  let cuts_alone ie =
    String.length (Codec.to_string encode_index_entry ie) >= max_node_bytes
    || Rolling.feed_string (Rolling.create params)
         (Codec.to_string E.encode_key ie.split)

  (* The termination rule.  Chunking a row whose entries all cut alone,
     save the last, gives one node per entry, and the row above it has the
     same split keys again: collapsing would never reach a single node.
     Such a row is {e stuck}, and one root node holds all of it.  A row
     that collapses at all is never stuck, so every tree that a plain
     climb finishes keeps its shape.  [build_up], [update] and [validate]
     all apply this one rule. *)
  let stuck row =
    let rec cut_but_last = function
      | [] | [ _ ] -> true
      | ie :: rest -> cuts_alone ie && cut_but_last rest
    in
    match row with [] | [ _ ] -> false | _ -> cut_but_last row

  (* Collapse rows upward until a single node remains. *)
  let rec build_up put row =
    match row with
    | [] -> None
    | [ ie ] -> Some ie.child
    | _ when stuck row -> Some (put (index_chunk row))
    | _ -> build_up put (chunk_level index_level put row)

  let sort_dedup_entries entries =
    (* Stable sort + last-wins on duplicate keys. *)
    let sorted =
      List.stable_sort (fun a b -> E.compare_key (E.key a) (E.key b)) entries
    in
    let rec dedup = function
      | a :: (b :: _ as rest) when E.compare_key (E.key a) (E.key b) = 0 ->
        dedup rest
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    dedup sorted

  let build store entries =
    Obs.with_span span_build @@ fun () ->
    let entries = sort_dedup_entries entries in
    let put = Store.put store in
    { store; root = build_up put (chunk_level leaf_level put entries) }

  let build_sorted_seq store seq =
    Obs.with_span span_build @@ fun () ->
    let put = Store.put store in
    let out = ref [] in
    let emit items =
      out := entry_of leaf_level items (put (leaf_chunk items)) :: !out
    in
    let ch = Chunker.create ~params ~max_bytes:max_node_bytes ~emit () in
    let prev = ref None in
    Seq.iter
      (fun e ->
        let k = E.key e in
        (match !prev with
         | Some p when E.compare_key p k >= 0 ->
           invalid_arg "build_sorted_seq: keys not strictly increasing"
         | _ -> ());
        prev := Some k;
        Chunker.add ch e (encode_entry e))
      seq;
    Chunker.finish ch;
    { store; root = build_up put (List.rev !out) }

  (* ---------------- accessors ---------------- *)

  let cardinal t =
    match t.root with
    | None -> 0
    | Some h -> (
      match read_node t.store h with
      | Leaf entries -> List.length entries
      | Index ies -> List.fold_left (fun a ie -> a + ie.count) 0 ies)

  let height t =
    let rec go h acc =
      match read_node t.store h with
      | Leaf _ -> acc + 1
      | Index ies -> (
        match ies with
        | [] -> corrupt "empty index node %s" (Hash.to_hex h)
        | ie :: _ -> go ie.child (acc + 1))
    in
    match t.root with None -> 0 | Some h -> go h 0

  (* First index entry whose split key is >= k, B+-tree descent. *)
  let rec find_in store h k =
    match read_node store h with
    | Leaf entries ->
      List.find_opt (fun e -> E.compare_key (E.key e) k = 0) entries
    | Index ies -> (
      match List.find_opt (fun ie -> E.compare_key k ie.split <= 0) ies with
      | None -> None
      | Some ie -> find_in store ie.child k)

  let find t k =
    match t.root with
    | None -> None
    | Some h -> Obs.with_span span_find (fun () -> find_in t.store h k)

  let mem t k = find t k <> None

  let rec iter_node store f h =
    match read_node store h with
    | Leaf entries -> List.iter f entries
    | Index ies -> List.iter (fun ie -> iter_node store f ie.child) ies

  let iter f t =
    match t.root with None -> () | Some h -> iter_node t.store f h

  let fold f acc t =
    let acc = ref acc in
    iter (fun e -> acc := f !acc e) t;
    !acc

  let to_list t = List.rev (fold (fun acc e -> e :: acc) [] t)

  let to_seq t =
    (* Explicit stack of pending nodes; chunks are only read on demand. *)
    let rec nodes_seq stack () =
      match stack with
      | [] -> Seq.Nil
      | h :: rest -> (
        match read_node t.store h with
        | Leaf entries -> entries_seq entries rest ()
        | Index ies ->
          nodes_seq (List.map (fun ie -> ie.child) ies @ rest) ())
    and entries_seq entries stack () =
      match entries with
      | [] -> nodes_seq stack ()
      | e :: rest -> Seq.Cons (e, entries_seq rest stack)
    in
    match t.root with None -> Seq.empty | Some h -> nodes_seq [ h ]

  (* ---------------- range queries ----------------

     A child pointed to by index entry [ie] holds keys in the half-open
     range (previous sibling's split, ie.split]; the walk prunes children
     disjoint from [lo, hi] and, for counting, credits fully-covered
     children from their stored counts without reading them. *)

  let ge_lo lo k =
    match lo with None -> true | Some l -> E.compare_key k l >= 0

  let le_hi hi k =
    match hi with None -> true | Some h -> E.compare_key k h <= 0

  let iter_range ?lo ?hi f t =
    let rec go h =
      match read_node t.store h with
      | Leaf entries ->
        List.iter
          (fun e ->
            let k = E.key e in
            if ge_lo lo k && le_hi hi k then f e)
          entries
      | Index ies ->
        let rec walk prev = function
          | [] -> ()
          | ie :: rest ->
            let below_lo =
              match lo with
              | Some l -> E.compare_key ie.split l < 0
              | None -> false
            in
            let above_hi =
              match hi, prev with
              | Some h, Some p -> E.compare_key p h >= 0
              | _ -> false
            in
            if not (below_lo || above_hi) then go ie.child;
            walk (Some ie.split) rest
        in
        walk None ies
    in
    match t.root with None -> () | Some h -> go h

  let fold_range ?lo ?hi f acc t =
    let acc = ref acc in
    iter_range ?lo ?hi (fun e -> acc := f !acc e) t;
    !acc

  let to_list_range ?lo ?hi t =
    List.rev (fold_range ?lo ?hi (fun acc e -> e :: acc) [] t)

  let count_range ?lo ?hi t =
    let rec go h =
      match read_node t.store h with
      | Leaf entries ->
        List.fold_left
          (fun acc e ->
            let k = E.key e in
            if ge_lo lo k && le_hi hi k then acc + 1 else acc)
          0 entries
      | Index ies ->
        let rec walk prev acc = function
          | [] -> acc
          | ie :: rest ->
            let below_lo =
              match lo with
              | Some l -> E.compare_key ie.split l < 0
              | None -> false
            in
            let above_hi =
              match hi, prev with
              | Some h, Some p -> E.compare_key p h >= 0
              | _ -> false
            in
            let acc =
              if below_lo || above_hi then acc
              else begin
                (* Fully covered: min key > prev >= lo and max = split <= hi. *)
                let lo_covered =
                  match lo, prev with
                  | None, _ -> true
                  | Some l, Some p -> E.compare_key p l >= 0
                  | Some _, None -> false
                in
                if lo_covered && le_hi hi ie.split then acc + ie.count
                else acc + go ie.child
              end
            in
            walk (Some ie.split) acc rest
        in
        walk None 0 ies
    in
    match t.root with None -> 0 | Some h -> go h

  let nth t n =
    if n < 0 then None
    else
      let rec go h n =
        match read_node t.store h with
        | Leaf entries -> List.nth_opt entries n
        | Index ies ->
          let rec pick n = function
            | [] -> None
            | ie :: rest ->
              if n < ie.count then go ie.child n else pick (n - ie.count) rest
          in
          pick n ies
      in
      match t.root with None -> None | Some h -> go h n

  let min_entry t =
    let rec go h =
      match read_node t.store h with
      | Leaf [] -> None
      | Leaf (e :: _) -> Some e
      | Index [] -> None
      | Index (ie :: _) -> go ie.child
    in
    match t.root with None -> None | Some h -> go h

  let max_entry t =
    let rec go h =
      match read_node t.store h with
      | Leaf [] -> None
      | Leaf entries -> Some (last_exn entries)
      | Index [] -> None
      | Index ies -> go (last_exn ies).child
    in
    match t.root with None -> None | Some h -> go h

  (* ---------------- leaf row ---------------- *)

  (* The leaf level as index entries (split key, child id, count).  For a
     single-leaf tree we synthesize the index entry. *)
  let leaf_row t =
    let rec rows h =
      match read_node t.store h with
      | Leaf entries ->
        (* Only reachable when the root itself is a leaf. *)
        (match entries with
         | [] -> []
         | _ -> [ entry_of leaf_level entries h ])
      | Index ies -> (
        match ies with
        | [] -> []
        | first :: _ -> (
          match read_node t.store first.child with
          | Leaf _ -> ies
          | Index _ -> List.concat_map (fun ie -> rows ie.child) ies))
    in
    match t.root with None -> [] | Some h -> rows h

  (* ---------------- update ----------------

     Each level of a POS-Tree is its row of items (entries at the leaves,
     the index entries of the level below above them) cut into nodes by
     the chunker, which restarts at every node boundary.  So where an
     edited level's row matches the old one from an old node boundary on,
     chunking it again would only reproduce the old nodes.  [update] walks
     the levels bottom-up and re-chunks, at each, just the old nodes from
     the first edited item to the point where the chunker is idle at an old
     boundary with no edit before the next old node.  The old nodes so
     replaced, and their replacements, are the edits of the parent row.
     Nodes are reached by descending from the root; untouched ones are
     never read, encoded, hashed or put. *)

  let edit_key = function Put e -> E.key e | Remove k -> k

  let sort_dedup_edits edits =
    let sorted =
      List.stable_sort (fun a b -> E.compare_key (edit_key a) (edit_key b))
        edits
    in
    let rec dedup = function
      | a :: (b :: _ as rest)
        when E.compare_key (edit_key a) (edit_key b) = 0 ->
        dedup rest
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    dedup sorted

  (* A node of the old tree at some level: its index entry and, for each
     level above, innermost first, the siblings to the right of its
     ancestor there. *)
  type cursor = { here : index_entry; right : index_entry list list }

  (* The node at [level] whose key range holds [k]: the first child whose
     split is >= [k] at every step down from [root] (at level [top]), else
     the last one, exactly as [find] routes. *)
  let seek store ~root ~top level k =
    let rec down h lvl right =
      match read_node store h with
      | Leaf _ | Index [] -> corrupt "seek: bad index node %s" (Hash.to_hex h)
      | Index (ie :: rest) ->
        let rec pick ie = function
          | next :: rest when E.compare_key k ie.split > 0 -> pick next rest
          | rest -> (ie, rest)
        in
        let ie, rest = pick ie rest in
        let right = rest :: right in
        if lvl - 1 = level then { here = ie; right }
        else down ie.child (lvl - 1) right
    in
    if level = top then { here = root; right = [] } else down root.child top []

  (* The node after [c] on its level, if any: climb to the nearest
     ancestor with a right sibling and take that sibling's leftmost
     descendant. *)
  let next store c =
    let rec advance = function
      | [] -> None
      | (ie :: rest) :: up -> Some { here = ie; right = rest :: up }
      | [] :: up ->
        Option.map
          (fun p ->
            match read_node store p.here.child with
            | Index (ie :: rest) -> { here = ie; right = rest :: p.right }
            | Leaf _ | Index [] ->
              corrupt "next: bad index node %s" (Hash.to_hex p.here.child))
          (advance up)
    in
    advance c.right

  (* Re-chunk one level around key-sorted item edits ([Some item] puts,
     [None] removes).  Chunking starts at an edited old node, with the
     chunker at a boundary since the node before is unchanged; it runs on
     into the next old node while the chunker holds items, and closes the
     span at an idle boundary.  A key beyond every split goes to the
     level-last node, the only one that may end without a pattern.
     [carry] is called for each old item copied into a new node.  Returns
     the spans in key order as (old nodes, new nodes). *)
  let resync lvl ~store ~seek ~put ~carry edits =
    let spans = ref [] and olds = ref [] and news = ref [] in
    let emit items =
      let id = put (lvl.mk_chunk items) (lvl.to_node items) in
      news := entry_of lvl items id :: !news
    in
    let ch = Chunker.create ~params ~max_bytes:max_node_bytes ~emit () in
    let add it = Chunker.add ch it (lvl.encode_item it) in
    let apply (_, item) = Option.iter add item in
    let close () =
      spans := (List.rev !olds, List.rev !news) :: !spans;
      olds := [];
      news := []
    in
    let rec load c edits =
      olds := c.here :: !olds;
      let h = c.here.child in
      merge c (lvl.items_of h (read_node store h)) edits
    and merge c items edits =
      match items, edits with
      | it :: items', ((k, _) as ed) :: eds ->
        let cmp = E.compare_key (lvl.key_of it) k in
        if cmp < 0 then (carry (); add it; merge c items' edits)
        else (apply ed; merge c (if cmp = 0 then items' else items) eds)
      | it :: items', [] -> carry (); add it; merge c items' []
      | [], _ -> boundary c edits
    and boundary c edits =
      let busy = Chunker.pending ch in
      if edits = [] && not busy then close ()
      else
        match next store c with
        | None ->
          List.iter apply edits;
          Chunker.finish ch;
          close ()
        | Some c' when busy -> load c' edits
        | Some _ ->
          close ();
          load (seek (fst (List.hd edits))) edits
    in
    (match edits with [] -> () | (k, _) :: _ -> load (seek k) edits);
    List.rev !spans

  (* A span's edits to the parent row: its old nodes' entries leave, its
     new ones enter; a new entry with an old split key replaces it. *)
  let lift spans =
    let rec go olds news acc =
      match olds, news with
      | [], [] -> acc
      | o :: os, [] -> go os [] ((o.split, None) :: acc)
      | [], n :: ns -> go [] ns ((n.split, Some n) :: acc)
      | o :: os, n :: ns ->
        let c = E.compare_key o.split n.split in
        if c < 0 then go os news ((o.split, None) :: acc)
        else go (if c = 0 then os else olds) ns ((n.split, Some n) :: acc)
    in
    List.rev
      (List.fold_left (fun acc (olds, news) -> go olds news acc) [] spans)

  let same_nodes olds news =
    List.equal (fun a b -> Hash.equal a.child b.child) olds news

  let update t edits =
    let edits = sort_dedup_edits edits in
    if edits = [] then t
    else
      Obs.with_span span_update @@ fun () ->
      match t.root with
      | None ->
        let entries =
          List.filter_map (function Put e -> Some e | Remove _ -> None) edits
        in
        build t.store entries
      | Some root ->
        let store = t.store in
        let top = height t - 1 in
        let root =
          match read_node store root with
          | Leaf es -> entry_of leaf_level es root
          | Index ies -> entry_of index_level ies root
        in
        let hashed chunk =
          Obs.add bytes_hashed (Chunk.encoded_size chunk);
          chunk
        in
        (* Index nodes wait here (top level first) until the new root is
           known: when edits shrink the tree, the levels above the new root
           come out as one-child wrappers that must not reach the store. *)
        let pending = ref [] in
        let put level chunk node =
          let chunk = hashed chunk in
          if level = 0 then Store.put store chunk
          else begin
            pending := (level, chunk, node) :: !pending;
            Chunk.hash chunk
          end
        in
        let resync_at level lvl edits =
          let carry =
            if level = 0 then ignore else fun () -> Obs.incr chunks_reused
          in
          resync lvl ~store ~seek:(seek store ~root ~top level)
            ~put:(put level) ~carry edits
        in
        let flush upto =
          List.iter
            (fun (level, chunk, _) ->
              if level <= upto then ignore (Store.put store chunk))
            (List.rev !pending)
        in
        let node_of h =
          match
            List.find_opt (fun (_, c, _) -> Hash.equal (Chunk.hash c) h) !pending
          with
          | Some (_, _, node) -> node
          | None -> read_node store h
        in
        let rec unwrap level h =
          match node_of h with
          | Index [ ie ] -> unwrap (level - 1) ie.child
          | Leaf _ | Index _ -> (level, h)
        in
        (* A stuck row above level 1 sits on one-entry nodes whose entries
           form the row below; the lowest stuck row is the new top row. *)
        let rec lowest_stuck level row =
          let below =
            if level = 1 then []
            else
              List.concat_map
                (fun ie -> index_level.items_of ie.child (node_of ie.child))
                row
          in
          if stuck below then lowest_stuck (level - 1) below else (level, row)
        in
        let rec climb level spans =
          match List.filter (fun (o, n) -> not (same_nodes o n)) spans with
          | [] -> t
          | spans when level <= top ->
            climb (level + 1) (resync_at level index_level (lift spans))
          | (_, row) :: _ -> (
            (* Past the old root level: [row] is the new top row. *)
            match row with
            | [] -> { t with root = None }
            | [ ie ] ->
              let level, h = unwrap top ie.child in
              flush level;
              { t with root = Some h }
            | row when stuck row ->
              let level, row = lowest_stuck (top + 1) row in
              flush (level - 1);
              let root = Store.put store (hashed (index_chunk row)) in
              { t with root = Some root }
            | _ ->
              flush top;
              let put chunk = Store.put store (hashed chunk) in
              { t with root = build_up put row })
        in
        climb 1
          (resync_at 0 leaf_level
             (List.map
                (function Put e -> (E.key e, Some e) | Remove k -> (k, None))
                edits))

  let insert t e = update t [ Put e ]
  let remove t k = update t [ Remove k ]

  (* ---------------- diff ---------------- *)

  let rec entries_of_hash store h acc =
    match read_node store h with
    | Leaf entries -> List.rev_append entries acc
    | Index ies ->
      List.fold_left (fun acc ie -> entries_of_hash store ie.child acc) acc
        ies

  let subtree_entries store hs =
    List.rev
      (List.fold_left (fun acc h -> entries_of_hash store h acc) [] hs)

  (* Merge-walk two sorted entry lists; [acc] is built in reverse. *)
  let diff_entries l1 l2 acc =
    let rec go l1 l2 acc =
      match l1, l2 with
      | [], [] -> acc
      | e1 :: r1, [] -> go r1 [] (Removed e1 :: acc)
      | [], e2 :: r2 -> go [] r2 (Added e2 :: acc)
      | e1 :: r1, e2 :: r2 ->
        let c = E.compare_key (E.key e1) (E.key e2) in
        if c < 0 then go r1 l2 (Removed e1 :: acc)
        else if c > 0 then go l1 r2 (Added e2 :: acc)
        else if E.equal e1 e2 then go r1 r2 acc
        else go r1 r2 (Modified (e1, e2) :: acc)
    in
    go l1 l2 acc

  (* Diff recursion works on (node, height) pairs at a {e common} height.
     Two logically-close trees can still differ in total height (index-level
     chunking can collapse or add a level), so the taller side's upper
     structure — always a handful of small nodes — is first expanded into
     the row of sub-tree pointers at the shorter side's root height. *)

  (* Entries [levels] below node [h]; [levels >= 1] and [h] is an index
     node at least [levels] deep. *)
  let rec row_below store h levels =
    match read_node store h with
    | Leaf _ -> corrupt "row_below: unexpected leaf at %s" (Hash.to_hex h)
    | Index ies ->
      if levels = 1 then ies
      else List.concat_map (fun ie -> row_below store ie.child (levels - 1)) ies

  let node_height store h =
    let rec go h acc =
      match read_node store h with
      | Leaf _ -> acc
      | Index [] -> corrupt "empty index node %s" (Hash.to_hex h)
      | Index (ie :: _) -> go ie.child (acc + 1)
    in
    go h 1

  (* Each side is read from its own store: the two trees may live in
     stores that share no chunks. *)
  let rec diff_nodes s1 s2 h1 h2 height acc =
    if Hash.equal h1 h2 then acc
    else
      match read_node s1 h1, read_node s2 h2 with
      | Leaf e1, Leaf e2 -> diff_entries e1 e2 acc
      | Index i1, Index i2 -> diff_rows s1 s2 i1 i2 (height - 1) acc
      | Leaf e1, Index _ -> diff_entries e1 (subtree_entries s2 [ h2 ]) acc
      | Index _, Leaf e2 -> diff_entries (subtree_entries s1 [ h1 ]) e2 acc

  (* Walk two rows of index entries (pointing to sub-trees of [height]) by
     split key.  Children that align on the same split key are recursed into
     (and pruned when ids are equal); boundary-shifted spans are flattened
     and compared entry-wise.  Thanks to structural invariance such spans
     only appear next to actual differences, so the walk skips identical
     regions wholesale. *)
  and diff_rows s1 s2 i1 i2 height acc =
    let flush span1 span2 acc =
      match span1, span2 with
      | [], [] -> acc
      | [ a ], [ b ] ->
        (* A lone realigned pair keeps recursing instead of flattening. *)
        diff_nodes s1 s2 a.child b.child height acc
      | _ when height > 1 ->
        (* Boundary-shifted index spans: expand one level and realign —
           the shift is local, so the next level prunes again. *)
        let expand store span =
          List.concat_map
            (fun ie ->
              match read_node store ie.child with
              | Index ies -> ies
              | Leaf _ ->
                corrupt "diff: leaf at height %d under %s" height
                  (Hash.to_hex ie.child))
            (List.rev span)
        in
        diff_rows s1 s2 (expand s1 span1) (expand s2 span2) (height - 1) acc
      | _ ->
        (* Leaf-level spans: compare the actual entries. *)
        let hs l = List.rev_map (fun ie -> ie.child) l in
        diff_entries
          (subtree_entries s1 (hs span1))
          (subtree_entries s2 (hs span2))
          acc
    in
    let rec walk l1 l2 span1 span2 acc =
      match l1, l2 with
      | [], [] -> flush span1 span2 acc
      | e1 :: r1, [] -> walk r1 [] (e1 :: span1) span2 acc
      | [], e2 :: r2 -> walk [] r2 span1 (e2 :: span2) acc
      | e1 :: r1, e2 :: r2 ->
        let c = E.compare_key e1.split e2.split in
        if c = 0 then
          let acc = flush (e1 :: span1) (e2 :: span2) acc in
          walk r1 r2 [] [] acc
        else if c < 0 then walk r1 l2 (e1 :: span1) span2 acc
        else walk l1 r2 span1 (e2 :: span2) acc
    in
    walk i1 i2 [] [] acc

  let diff t1 t2 =
    Obs.with_span span_diff @@ fun () ->
    let s1 = t1.store and s2 = t2.store in
    let acc =
      match t1.root, t2.root with
      | None, None -> []
      | Some h1, None ->
        List.rev_map (fun e -> Removed e) (subtree_entries s1 [ h1 ])
      | None, Some h2 ->
        List.rev_map (fun e -> Added e) (subtree_entries s2 [ h2 ])
      | Some h1, Some h2 ->
        if Hash.equal h1 h2 then []
        else begin
          let ht1 = node_height s1 h1
          and ht2 = node_height s2 h2 in
          if ht1 = ht2 then diff_nodes s1 s2 h1 h2 ht1 []
          else begin
            (* Expand both sides to the rows one level below the shorter
               root: that is the first level where content-defined
               boundaries realign, so pruning applies again. *)
            let target = max 1 (min ht1 ht2 - 1) in
            let row_of store h ht =
              if ht = target then
                (* Only when the shorter tree is a single leaf. *)
                let split =
                  match read_node store h with
                  | Leaf es -> E.key (last_exn es)
                  | Index ies -> (last_exn ies).split
                in
                [ { split; child = h; count = 0 } ]
              else row_below store h (ht - target)
            in
            diff_rows s1 s2 (row_of s1 h1 ht1) (row_of s2 h2 ht2) target []
          end
        end
    in
    List.rev acc

  let edit_of_change = function
    | Added e -> Put e
    | Removed e -> Remove (E.key e)
    | Modified (_, e2) -> Put e2

  (* ---------------- merge ---------------- *)

  type conflict = {
    key : E.key;
    base : E.t option;
    ours : edit;
    theirs : edit;
  }

  type resolver = conflict -> edit option

  let resolve_ours c = Some c.ours
  let resolve_theirs c = Some c.theirs

  let equal_edit a b =
    match a, b with
    | Put x, Put y -> E.equal x y
    | Remove _, Remove _ -> true
    | Put _, Remove _ | Remove _, Put _ -> false

  let merge ?(on_conflict = fun _ -> None) ~base ~ours ~theirs () =
    Obs.with_span span_merge @@ fun () ->
    let da = List.map edit_of_change (diff base ours) in
    let db = List.map edit_of_change (diff base theirs) in
    (* Both lists are key-sorted; walk them to find overlapping keys. *)
    let rec go da db to_apply conflicts =
      match da, db with
      | _, [] -> (to_apply, conflicts)
      | [], e :: rest -> go [] rest (e :: to_apply) conflicts
      | a :: ra, b :: rb ->
        let c = E.compare_key (edit_key a) (edit_key b) in
        if c < 0 then go ra db to_apply conflicts
        else if c > 0 then go da rb (b :: to_apply) conflicts
        else if equal_edit a b then go ra rb to_apply conflicts
        else
          let key = edit_key a in
          let conflict = { key; base = find base key; ours = a; theirs = b } in
          (match on_conflict conflict with
           | Some e -> go ra rb (e :: to_apply) conflicts
           | None -> go ra rb to_apply (conflict :: conflicts))
    in
    let to_apply, conflicts = go da db [] [] in
    if conflicts <> [] then Error (List.rev conflicts)
    else Ok (update ours (List.rev to_apply))

  (* ---------------- Merkle proofs ---------------- *)

  type proof = string list

  (* Routing is deterministic from node content: the first child whose
     split key is >= the target, else the last child (which also hosts
     absence proofs for keys beyond the key space). *)
  let route ies k =
    match List.find_opt (fun ie -> E.compare_key k ie.split <= 0) ies with
    | Some ie -> ie
    | None -> last_exn ies

  let prove t k =
    match t.root with
    | None -> Error "cannot prove against an empty tree"
    | Some root ->
      let rec go h acc =
        match t.store.Store.get_raw h with
        | None -> Error (Printf.sprintf "missing chunk %s" (Hash.to_hex h))
        | Some raw -> (
          let acc = raw :: acc in
          match Store.get t.store h with
          | None -> Error "undecodable chunk"
          | Some chunk -> (
            match decode_node chunk with
            | Leaf _ -> Ok (List.rev acc)
            | Index [] -> Error "empty index node"
            | Index ies -> go (route ies k).child acc
            | exception Corrupt m -> Error m))
      in
      go root []

  let verify_proof ~root k proof =
    let decode raw =
      match Chunk.decode raw with
      | Error e -> Error e
      | Ok chunk -> (
        match decode_node chunk with
        | node -> Ok node
        | exception Corrupt m -> Error m)
    in
    let rec walk expected = function
      | [] -> Error "proof: truncated path"
      | raw :: rest ->
        if not (Hash.equal (Hash.of_string raw) expected) then
          Error "proof: chunk does not hash to the id its parent names"
        else (
          match decode raw with
          | Error e -> Error ("proof: " ^ e)
          | Ok (Leaf entries) ->
            if rest <> [] then Error "proof: trailing chunks after leaf"
            else
              Ok
                (List.find_opt (fun e -> E.compare_key (E.key e) k = 0)
                   entries)
          | Ok (Index []) -> Error "proof: empty index node"
          | Ok (Index ies) -> walk (route ies k).child rest)
    in
    walk root proof

  (* ---------------- introspection ---------------- *)

  type node_stats = {
    levels : int;
    nodes_per_level : int list;
    bytes_per_level : int list;
    leaf_entries : int;
    leaf_node_sizes : int list;
  }

  let chunk_of_hash store h =
    match Store.get store h with
    | Some c -> c
    | None -> corrupt "missing chunk %s" (Hash.to_hex h)

  let node_stats t =
    match t.root with
    | None ->
      { levels = 0; nodes_per_level = []; bytes_per_level = [];
        leaf_entries = 0; leaf_node_sizes = [] }
    | Some h ->
      let rec go level_hashes (nodes, bytes, sizes_acc, entries_acc) =
        let chunks = List.map (chunk_of_hash t.store) level_hashes in
        let level_bytes =
          List.fold_left (fun a c -> a + Chunk.encoded_size c) 0 chunks
        in
        let nodes = List.length level_hashes :: nodes in
        let bytes = level_bytes :: bytes in
        match decode_node (List.hd chunks) with
        | Leaf _ ->
          let sizes = List.map Chunk.encoded_size chunks in
          let entries =
            List.fold_left
              (fun a c ->
                match decode_node c with
                | Leaf es -> a + List.length es
                | Index _ -> a)
              0 chunks
          in
          (List.rev nodes, List.rev bytes, sizes, entries + entries_acc)
        | Index _ ->
          let children =
            List.concat_map
              (fun c ->
                match decode_node c with
                | Index ies -> List.map (fun ie -> ie.child) ies
                | Leaf _ -> [])
              chunks
          in
          go children (nodes, bytes, sizes_acc, entries_acc)
      in
      let nodes_per_level, bytes_per_level, leaf_node_sizes, leaf_entries =
        go [ h ] ([], [], [], 0)
      in
      { levels = List.length nodes_per_level;
        nodes_per_level;
        bytes_per_level;
        leaf_entries;
        leaf_node_sizes }

  let node_hashes t =
    let acc = ref [] in
    let rec go h =
      acc := h :: !acc;
      match read_node t.store h with
      | Leaf _ -> ()
      | Index ies -> List.iter (fun ie -> go ie.child) ies
    in
    (match t.root with None -> () | Some h -> go h);
    List.rev !acc

  let leaf_hashes t = List.map (fun ie -> ie.child) (leaf_row t)

  (* ---------------- validation ---------------- *)

  let validate t =
    let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
    let check_chunk_integrity h =
      match t.store.Store.get_raw h with
      | None -> err "missing chunk %s" (Hash.to_hex h)
      | Some raw ->
        if not (Hash.equal (Hash.of_string raw) h) then
          err "chunk %s: stored bytes hash to %s (tampered)"
            (Hash.to_hex h)
            (Hash.to_hex (Hash.of_string raw))
        else
          (match Chunk.decode raw with
           | Error e -> err "chunk %s: %s" (Hash.to_hex h) e
           | Ok c -> Ok c)
    in
    let ( let* ) = Result.bind in
    (* Check one level: ids in order, with their items' encodings; verify
       sortedness, boundary justification, and collect children. *)
    let check_boundary ~is_last ~node_bytes items_encoded h =
      let rolling = Rolling.create params in
      let rec scan = function
        | [] -> Ok ()
        | [ last ] ->
          let hit = Rolling.feed_string rolling last in
          if hit || is_last || node_bytes >= max_node_bytes then Ok ()
          else
            err "node %s: no pattern at final entry and not level-last"
              (Hash.to_hex h)
        | enc :: rest ->
          if Rolling.feed_string rolling enc then
            err "node %s: pattern fires before final entry" (Hash.to_hex h)
          else scan rest
      in
      scan items_encoded
    in
    let rec check_level hashes ~expected_leaf_depth ~depth ~prev_key =
      match hashes with
      | [] -> Ok ()
      | _ ->
        let rec per_node hs prev_key children_acc =
          match hs with
          | [] -> Ok (List.rev children_acc, prev_key)
          | h :: rest ->
            let* chunk = check_chunk_integrity h in
            let node = try Ok (decode_node chunk) with Corrupt m -> Error m in
            let* node = node in
            let is_last = rest = [] in
            let node_bytes = Chunk.encoded_size chunk in
            (match node, expected_leaf_depth with
             | Leaf _, Some d when d <> depth ->
               err "leaf %s at depth %d, expected %d" (Hash.to_hex h) depth d
             | Leaf [], _ -> err "empty leaf %s" (Hash.to_hex h)
             | Leaf entries, _ ->
               let* () =
                 check_boundary ~is_last ~node_bytes
                   (List.map encode_entry entries) h
               in
               let* prev =
                 List.fold_left
                   (fun acc e ->
                     let* prev = acc in
                     let k = E.key e in
                     match prev with
                     | Some pk when E.compare_key pk k >= 0 ->
                       err "keys not strictly increasing at %a"
                         (fun () k -> Format.asprintf "%a" E.pp_key k) k
                     | _ -> Ok (Some k))
                   (Ok prev_key) entries
               in
               per_node rest prev children_acc
             | Index [], _ -> err "empty index node %s" (Hash.to_hex h)
             | Index ies, _ ->
               let* () =
                 if depth = 1 && stuck ies then Ok ()
                 else
                   check_boundary ~is_last ~node_bytes
                     (List.map
                        (fun ie -> Codec.to_string encode_index_entry ie)
                        ies)
                     h
               in
               (* Split keys and counts are validated against children after
                  the whole level is assembled. *)
               per_node rest prev_key (List.rev_append ies children_acc))
        in
        let* children, _last = per_node hashes prev_key [] in
        (match children with
         | [] -> Ok () (* leaf level: done *)
         | ies when List.compare_length_with hashes 1 > 0 && stuck ies ->
           err "stuck row of %d entries below the root at depth %d"
             (List.length ies) depth
         | ies ->
           (* Validate each child's count and split key. *)
           let* () =
             List.fold_left
               (fun acc ie ->
                 let* () = acc in
                 let* chunk = check_chunk_integrity ie.child in
                 let node =
                   try Ok (decode_node chunk) with Corrupt m -> Error m
                 in
                 let* node = node in
                 let count, max_key =
                   match node with
                   | Leaf es -> (List.length es, E.key (last_exn es))
                   | Index ces ->
                     ( List.fold_left (fun a c -> a + c.count) 0 ces,
                       (last_exn ces).split )
                 in
                 if count <> ie.count then
                   err "child %s: count %d, index says %d"
                     (Hash.to_hex ie.child) count ie.count
                 else if E.compare_key max_key ie.split <> 0 then
                   err "child %s: split key mismatch" (Hash.to_hex ie.child)
                 else Ok ())
               (Ok ()) ies
           in
           check_level
             (List.map (fun ie -> ie.child) ies)
             ~expected_leaf_depth ~depth:(depth + 1) ~prev_key)
    in
    match t.root with
    | None -> Ok ()
    | Some h ->
      (try
         let depth_of_leaves = height t in
         check_level [ h ] ~expected_leaf_depth:(Some depth_of_leaves)
           ~depth:1 ~prev_key:None
       with Corrupt m -> Error m)

  let pp fmt t =
    match t.root with
    | None -> Format.pp_print_string fmt "<empty pos-tree>"
    | Some h ->
      Format.fprintf fmt "<pos-tree root=%a entries=%d height=%d>" Hash.pp h
        (cardinal t) (height t)
end
