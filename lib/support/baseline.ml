type verdict = { checked : int; failures : string list }

let ok v = v.failures = []

let fail fmt = Printf.ksprintf (fun m -> m) fmt

(* Entries are identified by their "experiment" field; a baseline file is a
   JSON array of such objects. *)
let index_entries json =
  match Json.to_list json with
  | None -> Error "expected a JSON array of experiment entries"
  | Some entries ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | e :: rest -> (
            match Option.bind (Json.member "experiment" e) Json.to_str with
            | Some name -> go ((name, e) :: acc) rest
            | None -> Error "entry without an \"experiment\" field")
      in
      go [] entries

let compare_field ~exact ~tolerance ~entry key baseline current =
  match (baseline, current) with
  | Json.Str a, Json.Str b ->
      if a = b then None
      else Some (fail "%s.%s: %S (baseline) vs %S (current)" entry key a b)
  | Json.Num a, Json.Num b ->
      (* Floats compare by bit pattern, not (=): NaN = NaN is false (so a
         NaN baseline field could never pass) and 0. = -0. is true (so a
         sign flip would pass silently, while printing confusingly with
         %g). Bitwise identity is the honest notion of "the same float". *)
      let bits_a = Int64.bits_of_float a and bits_b = Int64.bits_of_float b in
      if bits_a = bits_b then None
      else if List.mem key exact then
        Some
          (fail
             "%s.%s: deterministic field drifted: %g (baseline) vs %g \
              (current) — bit patterns 0x%Lx vs 0x%Lx"
             entry key a b bits_a bits_b)
      else
        let delta = Float.abs (a -. b) in
        let scale = Float.max (Float.abs a) (Float.abs b) in
        if delta <= 1e-12 || delta <= (tolerance *. scale) then None
        else
          Some
            (fail
               "%s.%s: %g (baseline) vs %g (current), drift %.3g exceeds \
                tolerance %.3g"
               entry key a b
               (if scale > 0.0 then delta /. scale else delta)
               tolerance)
  | a, b ->
      if a = b then None
      else Some (fail "%s.%s: value shape changed" entry key)

let compare_entry ~exact ~tolerance name baseline current =
  match (baseline, current) with
  | Json.Obj bfields, Json.Obj cfields ->
      let bkeys = List.map fst bfields and ckeys = List.map fst cfields in
      let missing = List.filter (fun k -> not (List.mem k ckeys)) bkeys in
      let added = List.filter (fun k -> not (List.mem k bkeys)) ckeys in
      let shape =
        List.map (fail "%s: field %s missing from current run" name) missing
        @ List.map (fail "%s: field %s not in baseline" name) added
      in
      let diffs =
        List.filter_map
          (fun (k, bv) ->
            match List.assoc_opt k cfields with
            | None -> None (* already reported as missing *)
            | Some cv -> compare_field ~exact ~tolerance ~entry:name k bv cv)
          bfields
      in
      shape @ diffs
  | _ -> [ fail "%s: entry is not an object" name ]

let compare ?(exact = []) ?(tolerance = 0.01) ~baseline ~current () =
  match (index_entries baseline, index_entries current) with
  | Error m, _ -> { checked = 0; failures = [ "baseline: " ^ m ] }
  | _, Error m -> { checked = 0; failures = [ "current: " ^ m ] }
  | Ok base, Ok cur ->
      let missing =
        List.filter_map
          (fun (name, _) ->
            if List.mem_assoc name cur then None
            else Some (fail "%s: experiment missing from current run" name))
          base
      in
      let added =
        List.filter_map
          (fun (name, _) ->
            if List.mem_assoc name base then None
            else
              Some
                (fail "%s: experiment not in baseline (run --update-baseline)"
                   name))
          cur
      in
      let diffs =
        List.concat_map
          (fun (name, bentry) ->
            match List.assoc_opt name cur with
            | None -> []
            | Some centry ->
                compare_entry ~exact ~tolerance name bentry centry)
          base
      in
      { checked = List.length base; failures = missing @ added @ diffs }
