module V = Skel.Value

(* Streamed strip telemetry for the stateful df farm family: each frame's
   image is cut into horizontal strips whose pixel sums become the farm's
   task list, and each state-access mode gets a small deterministic compute
   function so the spec corpus and the conformance tests can pin
   parallel == sequential-oracle equivalence per mode. *)

let int_of v = V.to_int v
let pair_of name v =
  match v with
  | V.Tuple [ a; b ] -> (a, b)
  | _ -> raise (V.Type_error (name ^ " expects a pair"))

let register table =
  let reg = Skel.Funtable.register table in
  reg "strip_sums" ~arity:1
    ~cost:(fun v ->
      match v with
      | V.Image img -> 200.0 +. float_of_int (Vision.Image.size img)
      | _ -> 200.0)
    (fun v ->
      match v with
      | V.Image img ->
          V.List
            (List.map
               (fun band ->
                 let strip = Vision.Image.extract_band img band in
                 V.Int (Vision.Image.fold ( + ) 0 strip))
               (Vision.Image.row_bands img 8))
      | _ -> raise (V.Type_error "strip_sums expects an image"));
  (* stateless / accumulator compute: coarse luminance bucket *)
  reg "bucket" ~arity:1 ~cost:(fun _ -> 400.0) (fun v -> V.Int (int_of v / 16));
  (* readonly compute: scale by the broadcast gain *)
  reg "gain_scale" ~arity:1
    ~cost:(fun _ -> 400.0)
    (fun v ->
      let g, x = pair_of "gain_scale" v in
      V.Int (int_of g * int_of x));
  (* owner compute: running per-partition peak, state travels with the task *)
  reg "owner_peak" ~arity:1
    ~cost:(fun _ -> 400.0)
    (fun v ->
      let s, x = pair_of "owner_peak" v in
      let peak = max (int_of s) (int_of x) in
      V.Tuple [ V.Int peak; V.Int peak ]);
  (* resource compute: serial smoothing of successive sums *)
  reg "res_smooth" ~arity:1
    ~cost:(fun _ -> 400.0)
    (fun v ->
      let s, x = pair_of "res_smooth" v in
      let s' = (int_of s + int_of x) / 2 in
      V.Tuple [ V.Int s'; V.Int s' ]);
  reg "add" ~arity:2
    ~cost:(fun _ -> 50.0)
    (fun v ->
      let z, y = pair_of "add" v in
      V.Int (int_of z + int_of y))

let input_value () =
  let img = Vision.Image.create 64 64 in
  V.Image (Vision.Image.mapi (fun x y _ -> ((7 * x) + (13 * y)) mod 251) img)
