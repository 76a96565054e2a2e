type applied = { rule : string; count : int }

(* The counter is global, but a replayed cached compile may have installed
   names minted by another process (see Funtable.derive), so skip any name
   the table already holds. *)
let gensym =
  let n = ref 0 in
  fun table base ->
    let rec fresh () =
      incr n;
      let name = Printf.sprintf "%s__t%d" base !n in
      if Funtable.mem table name then fresh () else name
    in
    fresh ()

(* ------------------------------------------------------------------ *)
(* Structural rules                                                    *)

let rec flatten_pipes stage =
  match stage with
  | Ir.Pipe stages ->
      let flat =
        List.concat_map
          (fun s ->
            match flatten_pipes s with Ir.Pipe inner -> inner | s -> [ s ])
          stages
      in
      (match flat with [ s ] -> s | stages -> Ir.Pipe stages)
  | Ir.Itermem { input; loop; output; init } ->
      Ir.Itermem { input; loop = flatten_pipes loop; output; init }
  | Ir.Seq _ | Ir.Scm _ | Ir.Df _ | Ir.Tf _ -> stage

(* ------------------------------------------------------------------ *)
(* Table-backed rules                                                  *)

(* Each rule mints a fresh name and installs a pure-data derivation; the
   closure-building lives in Funtable.derive so that a cached compile can
   replay the same registrations without re-running the rewrite. *)

let compose table f g =
  let name = gensym table (f ^ "_" ^ g) in
  Funtable.derive table name (Funtable.Compose { f; g });
  name

let serialise_df table ~comp ~acc ~init =
  let name = gensym table ("df1_" ^ comp) in
  Funtable.derive table name (Funtable.Serial_df { comp; acc; init });
  name

let serialise_tf table ~work ~acc ~init =
  let name = gensym table ("tf1_" ^ work) in
  Funtable.derive table name (Funtable.Serial_tf { work; acc; init });
  name

let serialise_scm table ~split ~compute ~merge =
  let name = gensym table ("scm1_" ^ compute) in
  Funtable.derive table name (Funtable.Serial_scm { split; compute; merge });
  name

(* One bottom-up rewriting pass; returns the stage and per-rule counters. *)
let rewrite_pass table stage counters =
  let bump rule = counters := (rule, 1 + (try List.assoc rule !counters with Not_found -> 0)) :: List.remove_assoc rule !counters in
  let rec go stage =
    match stage with
    | Ir.Seq _ -> stage
    | Ir.Pipe stages ->
        let stages = List.map go stages in
        (* fuse adjacent Seq stages *)
        let rec fuse = function
          | Ir.Seq f :: Ir.Seq g :: rest ->
              bump "fuse-seq";
              fuse (Ir.Seq (compose table f g) :: rest)
          | s :: rest -> s :: fuse rest
          | [] -> []
        in
        let fused = fuse stages in
        (match fused with [ s ] -> s | stages -> Ir.Pipe stages)
    | Ir.Df { nworkers = 1; comp; acc; init; state = Ir.Stateless } ->
        (* Only the stateless farm serialises to a pure fold: a stateful
           one carries state across frames, which a Seq function cannot. *)
        bump "serialise-df";
        Ir.Seq (serialise_df table ~comp ~acc ~init)
    | Ir.Tf { nworkers = 1; work; acc; init } ->
        bump "serialise-tf";
        Ir.Seq (serialise_tf table ~work ~acc ~init)
    | Ir.Scm { nparts = 1; split; compute; merge } ->
        bump "serialise-scm";
        Ir.Seq (serialise_scm table ~split ~compute ~merge)
    | Ir.Df _ | Ir.Tf _ | Ir.Scm _ -> stage
    | Ir.Itermem { input; loop; output; init } ->
        Ir.Itermem { input; loop = go loop; output; init }
  in
  go stage

let normalize table prog =
  let counters = ref [] in
  let flat_counter = ref 0 in
  let rec fixpoint stage n =
    if n > 20 then stage
    else begin
      let flattened = flatten_pipes stage in
      if flattened <> stage then incr flat_counter;
      let rewritten = rewrite_pass table flattened counters in
      if rewritten = flattened then rewritten else fixpoint rewritten (n + 1)
    end
  in
  let body = fixpoint prog.Ir.body 0 in
  let applied =
    (if !flat_counter > 0 then [ { rule = "flatten-pipe"; count = !flat_counter } ]
     else [])
    @ List.map (fun (rule, count) -> { rule; count }) (List.rev !counters)
  in
  ({ prog with Ir.body }, applied)

let applied_summary = function
  | [] -> "no rules applied"
  | applied ->
      String.concat ", "
        (List.map (fun { rule; count } -> Printf.sprintf "%s x%d" rule count) applied)
