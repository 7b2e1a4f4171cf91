module Protocol = Gossip_protocol.Protocol

type t = {
  lambda : float;
  norm : float;
  closed_form : float;
  bound : int;
  activations : int;
}

let default_lambdas =
  List.init 19 (fun i -> 0.05 +. (0.05 *. float_of_int i))

let impossible_t ~nu ~lambda ~pairs ~m ~start t =
  if t < start then true
  else begin
    (* Σ_{k=start}^{t} ν^k, computed stably. *)
    let sum = ref 0.0 and pw = ref (nu ** float_of_int start) in
    for _ = start to t do
      sum := !sum +. !pw;
      pw := !pw *. nu
    done;
    !sum < (lambda ** float_of_int t) *. pairs /. m
  end

(* Cumulative activation counts per round horizon, filtered by a
   predicate on the activation. *)
let cumulative_counts dg pred =
  let horizon = Delay_digraph.protocol_length dg in
  let per_round = Array.make (horizon + 1) 0 in
  for k = 0 to Delay_digraph.n_activations dg - 1 do
    let a = Delay_digraph.activation dg k in
    if pred a then
      per_round.(a.Delay_digraph.round + 1) <-
        per_round.(a.Delay_digraph.round + 1) + 1
  done;
  for i = 1 to horizon do
    per_round.(i) <- per_round.(i) + per_round.(i - 1)
  done;
  per_round
(* per_round.(t) = matching activations strictly before round index t,
   i.e. within the first t rounds. *)

let smallest_feasible ~nu ~lambda ~pairs ~m1 ~m2 ~start ~horizon =
  let rec scan t =
    if t > horizon then horizon + 1
    else begin
      let m1t = float_of_int (max 1 m1.(t)) in
      let m2t = float_of_int (max 1 m2.(t)) in
      let m = sqrt (m1t *. m2t) in
      if impossible_t ~nu ~lambda ~pairs ~m ~start t then scan (t + 1) else t
    end
  in
  scan 1

let certify_generic ?lambdas ?(refine = false) ?options ?norm dg ~mode ~pairs
    ~pred_src ~pred_dst ~start_of =
  let lambdas = match lambdas with Some l -> l | None -> default_lambdas in
  let norm =
    match norm with
    | Some f -> f
    | None -> fun dg lambda -> Delay_matrix.norm_blockwise ?options dg lambda
  in
  let horizon = Delay_digraph.protocol_length dg in
  let m1 = cumulative_counts dg pred_src in
  let m2 = cumulative_counts dg pred_dst in
  let window = Delay_digraph.window dg in
  let best = ref None in
  let consider lambda =
    if lambda > 0.0 && lambda < 1.0 then begin
      let nu = norm dg lambda in
      let bound =
        smallest_feasible ~nu ~lambda ~pairs ~m1 ~m2 ~start:(start_of ())
          ~horizon
      in
      let closed_form = Delay_matrix.closed_form_bound ~mode ~window lambda in
      let cert =
        {
          lambda;
          norm = nu;
          closed_form;
          bound;
          activations = Delay_digraph.n_activations dg;
        }
      in
      match !best with
      | None -> best := Some cert
      | Some b -> if cert.bound > b.bound then best := Some cert
    end
  in
  List.iter consider lambdas;
  (match (!best, refine) with
  | Some coarse, true ->
      (* finer sweep around the coarse winner; the bound only improves.
         The center itself is skipped: it is already [coarse], and only
         a strictly larger bound replaces the best. *)
      let center = coarse.lambda in
      for i = -10 to 10 do
        if i <> 0 then consider (center +. (0.005 *. float_of_int i))
      done
  | _ -> ());
  match !best with
  | Some c -> c
  | None -> invalid_arg "Certificate.certify: no valid lambda supplied"

(* Structural span tags: the digest identifies which delay digraph a
   recorded certificate search ran over, so traces of repeated runs can
   be diffed artifact by artifact. *)
let span_attrs dg =
  [
    ("dg", Gossip_util.Json.Str (Delay_digraph.fingerprint dg));
    ("activations", Gossip_util.Json.Int (Delay_digraph.n_activations dg));
    ("window", Gossip_util.Json.Int (Delay_digraph.window dg));
  ]

let certify ?lambdas ?refine ?options ?norm dg ~mode =
  let n =
    float_of_int (Gossip_topology.Digraph.n_vertices (Delay_digraph.graph dg))
  in
  Gossip_util.Instrument.span "delay.certify" ~attrs:(span_attrs dg) (fun () ->
      certify_generic ?lambdas ?refine ?options ?norm dg ~mode
        ~pairs:(n *. (n -. 1.0))
        ~pred_src:(fun _ -> true)
        ~pred_dst:(fun _ -> true)
        ~start_of:(fun () -> 1))

let certify_separator ?lambdas ?refine ?options ?norm dg ~mode ~sep =
  let open Gossip_topology.Separator in
  let g = Delay_digraph.graph dg in
  let v1 = Hashtbl.create 64 and v2 = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace v1 v ()) sep.v1;
  List.iter (fun v -> Hashtbl.replace v2 v ()) sep.v2;
  let c1 = List.length sep.v1 and c2 = List.length sep.v2 in
  let dist = Gossip_topology.Metrics.set_distance g sep.v1 sep.v2 in
  Gossip_util.Instrument.span "delay.certify-separator" ~attrs:(span_attrs dg)
    (fun () ->
      certify_generic ?lambdas ?refine ?options ?norm dg ~mode
        ~pairs:(float_of_int c1 *. float_of_int c2)
        ~pred_src:(fun a -> Hashtbl.mem v1 a.Delay_digraph.src)
        ~pred_dst:(fun a -> Hashtbl.mem v2 a.Delay_digraph.dst)
        ~start_of:(fun () -> max 1 (dist - 1)))

let certify_systolic ?lambdas ?refine ?options ?norm
    ?(expand = fun sys ~length -> Delay_digraph.of_systolic sys ~length) sys =
  let module Systolic = Gossip_protocol.Systolic in
  let s = Systolic.period sys in
  let mode = Systolic.mode sys in
  let n =
    Gossip_topology.Digraph.n_vertices (Systolic.graph sys)
  in
  (* Grow the expansion until the certified bound stops changing between
     doublings; cap the growth at a generous multiple of the trivial
     completion scale. *)
  let max_length = max (8 * s) (4 * s * n) in
  let rec go length previous =
    let dg = expand sys ~length in
    let cert = certify ?lambdas ?refine ?options ?norm dg ~mode in
    match previous with
    | Some p when p.bound = cert.bound -> cert
    | _ when 2 * length > max_length -> cert
    | _ -> go (2 * length) (Some cert)
  in
  go (4 * s) None

let to_json c =
  let module J = Gossip_util.Json in
  J.Obj
    [
      ("bound", J.Int c.bound);
      ("lambda", J.Float c.lambda);
      ("norm", J.Float c.norm);
      ("closed_form", J.Float c.closed_form);
      ("activations", J.Int c.activations);
    ]
