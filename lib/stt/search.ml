(* Enumerate full-rank {-1,0,1} matrices once per dimension. *)
let cache : (int, int list list list) Hashtbl.t = Hashtbl.create 4

let full_rank m =
  match m with
  | [ [ a; b ]; [ c; d ] ] -> (a * d) - (b * c) <> 0
  | [ [ a; b; c ]; [ d; e; f ]; [ g; h; i ] ] ->
    (a * ((e * i) - (f * h))) - (b * ((d * i) - (f * g)))
    + (c * ((d * h) - (e * g)))
    <> 0
  | _ ->
    let mat = Tl_linalg.Mat.of_int_rows m in
    not (Tl_linalg.Rat.is_zero (Tl_linalg.Mat.det mat))

let rec pow3 k = if k = 0 then 1 else 3 * pow3 (k - 1)

(* Search order: light matrices first, then fewest negative entries, then
   lexicographically largest (puts identity-like matrices ahead).  The
   order is packed into one int per matrix: (abs sum, negative count) above
   a row-major base-3 code of [1 - x] per cell, whose low part also decodes
   back to the matrix, so sorting allocates nothing per comparison.  The
   decoded matrices share their 3^n possible rows. *)
let candidate_matrices ~n =
  match Hashtbl.find_opt cache n with
  | Some ms -> ms
  | None ->
    let cells = n * n in
    let radix = pow3 cells in
    let keys = ref [] in
    (* count in base 3 over the cells; entries are digit - 1 *)
    let digits = Array.make cells 0 in
    for code = 0 to radix - 1 do
      let c = ref code in
      for i = 0 to cells - 1 do
        digits.(i) <- (!c mod 3) - 1;
        c := !c / 3
      done;
      let m =
        List.init n (fun i -> List.init n (fun j -> digits.((i * n) + j)))
      in
      if full_rank m then begin
        let weight = ref 0 and negs = ref 0 and lex = ref 0 in
        Array.iter
          (fun x ->
            weight := !weight + abs x;
            if x < 0 then incr negs;
            lex := (!lex * 3) + (1 - x))
          digits;
        keys := ((((!weight * (cells + 1)) + !negs) * radix) + !lex) :: !keys
      end
    done;
    let keys = Array.of_list !keys in
    Array.sort Int.compare keys;
    let row_radix = pow3 n in
    let rows =
      Array.init row_radix (fun code ->
          List.init n (fun j -> 1 - (code / pow3 (n - 1 - j) mod 3)))
    in
    let decode key =
      let lex = key mod radix in
      List.init n (fun i -> rows.(lex / pow3 (n * (n - 1 - i)) mod row_radix))
    in
    let ms = Array.to_list (Array.map decode keys) in
    Hashtbl.add cache n ms;
    ms

let selections stmt ~n =
  let depth = Tl_ir.Stmt.depth stmt in
  let rec choose start k =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun i ->
          List.map (fun rest -> i :: rest) (choose (i + 1) (k - 1)))
        (List.init (depth - start) (fun d -> start + d))
  in
  List.map Array.of_list (choose 0 n)

let selection_of_label stmt label =
  let iters = Array.of_list stmt.Tl_ir.Stmt.iters in
  let find_initial ch =
    let matches = ref [] in
    Array.iteri
      (fun i it ->
        if Char.uppercase_ascii it.Tl_ir.Iter.name.[0] = ch then
          matches := i :: !matches)
      iters;
    match !matches with
    | [ i ] -> i
    | [] -> raise Not_found
    | several -> (
      (* tiled nests contain both "m" and "mo": prefer the exact
         single-letter iterator *)
      let exact =
        List.filter
          (fun i ->
            String.lowercase_ascii iters.(i).Tl_ir.Iter.name
            = String.make 1 (Char.lowercase_ascii ch))
          several
      in
      match exact with
      | [ i ] -> i
      | [] | _ :: _ ->
        invalid_arg "Search.selection_of_label: ambiguous initial")
  in
  Array.init (String.length label) (fun k ->
      find_initial (Char.uppercase_ascii label.[k]))

let split_name name =
  match String.index_opt name '-' with
  | None -> invalid_arg "Search: dataflow name must be <SEL>-<LETTERS>"
  | Some i ->
    (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))

(* The paper sometimes labels a 2-D-reuse tensor with the letter of its
   dominant 1-D component (e.g. Conv2D "XYP-MST" where the weight's reuse is
   2-D systolic+multicast but written S).  Loose matching accepts those. *)
let letter_matches ~loose (df : Dataflow.t) target =
  Dataflow.letter df = target
  || (loose
      &&
      match df with
      | Dataflow.Reuse2d Dataflow.Broadcast -> target = 'M'
      | Dataflow.Reuse2d (Dataflow.Multicast_stationary _) ->
        target = 'M' || target = 'T'
      | Dataflow.Reuse2d (Dataflow.Systolic_multicast _) ->
        target = 'S' || target = 'M'
      | Dataflow.Unicast | Dataflow.Stationary _ | Dataflow.Systolic _
      | Dataflow.Multicast _ | Dataflow.Reuse_full -> false)

let design_matches ~loose d target_letters =
  let dfs =
    List.map (fun ti -> ti.Design.dataflow) d.Design.tensors
  in
  List.length dfs = String.length target_letters
  && List.for_all2
       (fun df ch -> letter_matches ~loose df ch)
       dfs
       (List.init (String.length target_letters) (String.get target_letters))

let matching_designs_uncached stmt name =
  let label, target_letters = split_name name in
  match selection_of_label stmt label with
  | exception Not_found -> []
  | selected ->
    let n = Array.length selected in
    let analyze = Design.analyzer stmt ~selected in
    let collect ~loose =
      List.filter_map
        (fun m ->
          let t = Transform.v stmt ~selected ~matrix:m in
          let d = analyze t in
          if design_matches ~loose d target_letters then Some d else None)
        (candidate_matrices ~n)
    in
    (match collect ~loose:false with
     | [] -> collect ~loose:true
     | strict -> strict)

(* name resolution sweeps every candidate matrix; memoise per (statement,
   name) so repeated lookups — evaluate_name, the figure benches, ASIC
   evaluation — pay the sweep once.  Designs are immutable, sharing is
   safe. *)
let match_cache : Design.t list Tl_par.Cache.t =
  Tl_par.Cache.create ~name:"stt.matching_designs" ()

let matching_designs stmt name =
  let key = Signature.stmt_fingerprint stmt ^ "!" ^ name in
  Tl_par.Cache.find_or_add match_cache key (fun () ->
      matching_designs_uncached stmt name)

let find_design stmt name =
  match matching_designs stmt name with
  | [] -> None
  | d :: _ -> Some d

let find_design_exn stmt name =
  match find_design stmt name with
  | Some d -> d
  | None -> raise Not_found

(* A design's letters depend only on the loop depth, the selection, the
   matrix and the positional access matrices: the dataflow analysis never
   reads extents, and tensor and iterator names only enter the label.  The
   candidate sweep is therefore memoised by that structure; each entry
   holds, per selection in enumeration order, the first matrix realising
   each distinct letter string. *)
let structure_key ?selection stmt =
  let buf = Buffer.create 64 in
  let add_ints sep a =
    Array.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf sep;
        Buffer.add_string buf (string_of_int x))
      a
  in
  Buffer.add_string buf (string_of_int (Tl_ir.Stmt.depth stmt));
  (match selection with
   | None -> Buffer.add_string buf "/all"
   | Some s ->
     Buffer.add_string buf "/sel:";
     add_ints ',' s);
  List.iter
    (fun (a : Tl_ir.Access.t) ->
      Buffer.add_char buf '|';
      Array.iteri
        (fun i row ->
          if i > 0 then Buffer.add_char buf ';';
          add_ints ',' row)
        a.Tl_ir.Access.matrix)
    (stmt.Tl_ir.Stmt.inputs @ [ stmt.Tl_ir.Stmt.output ]);
  Buffer.contents buf

let letter_cache : (string * int list list) list list Tl_par.Cache.t =
  Tl_par.Cache.create ~name:"stt.all_designs" ()

let first_matrix_per_letters stmt sels =
  List.map
    (fun selected ->
      let analyze = Design.analyzer stmt ~selected in
      (* the label is fixed within a selection: distinct names are
         distinct letter strings *)
      let seen = Hashtbl.create 64 in
      let found =
        List.filter_map
          (fun m ->
            let d = analyze (Transform.v stmt ~selected ~matrix:m) in
            if Hashtbl.mem seen d.Design.name then None
            else begin
              Hashtbl.add seen d.Design.name ();
              Some (Design.letters d, m)
            end)
          (candidate_matrices ~n:(Array.length selected))
      in
      found)
    sels

(* Hit or miss, every design is rebuilt on the caller's own statement: a
   design record carries its statement, so names and extents come from the
   request, never from the statement that filled the cache. *)
let all_designs ?selection stmt =
  let sels =
    match selection with Some s -> [ s ] | None -> selections stmt ~n:3
  in
  let per_selection =
    Tl_par.Cache.find_or_add letter_cache (structure_key ?selection stmt)
      (fun () -> first_matrix_per_letters stmt sels)
  in
  let table = Hashtbl.create 64 in
  List.iter2
    (fun selected found ->
      let analyze = Design.analyzer stmt ~selected in
      List.iter
        (fun (letters, m) ->
          let t = Transform.v stmt ~selected ~matrix:m in
          let name = Transform.selection_label t ^ "-" ^ letters in
          if not (Hashtbl.mem table name) then
            Hashtbl.add table name (analyze t))
        found)
    sels per_selection;
  let names = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) names
