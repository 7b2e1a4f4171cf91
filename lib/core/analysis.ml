module Digraph = Gossip_topology.Digraph
module Metrics = Gossip_topology.Metrics
module Protocol = Gossip_protocol.Protocol
module Systolic = Gossip_protocol.Systolic
module Engine = Gossip_simulate.Engine
module General = Gossip_bounds.General
module Certificate = Gossip_delay.Certificate
module Delay_digraph = Gossip_delay.Delay_digraph

type network_report = {
  name : string;
  n : int;
  arcs : int;
  symmetric : bool;
  diameter : int;
  degree_parameter : int;
  general_bounds : (int * float) list;
  general_bounds_fd : (int * float) list;
  nonsystolic_bound : float;
}

let analyze_network ?ctx ?(periods = [ 3; 4; 5; 6; 7; 8 ]) g =
  let n = Digraph.n_vertices g in
  let diameter =
    match ctx with
    | Some ctx -> Context.diameter ctx g
    | None -> Metrics.diameter g
  in
  {
    name = Digraph.name g;
    n;
    arcs = Digraph.n_arcs g;
    symmetric = Digraph.is_symmetric g;
    diameter;
    degree_parameter = Digraph.degree_parameter g;
    general_bounds =
      List.map
        (fun s -> (s, General.coefficient_of_log ~e_coeff:(General.e s) ~n))
        periods;
    general_bounds_fd =
      List.map
        (fun s -> (s, General.coefficient_of_log ~e_coeff:(General.e_fd s) ~n))
        periods;
    nonsystolic_bound =
      General.coefficient_of_log ~e_coeff:General.e_inf ~n;
  }

type protocol_report = {
  network : string;
  mode : Protocol.mode;
  period : int;
  gossip_time : int option;
  broadcast_time : int option;
  diameter : int;
  certificate : Certificate.t;
  asymptotic_main_term : float;
}

let certify_protocol ?ctx ?horizon p =
  let g = Systolic.graph p in
  let n = Digraph.n_vertices g in
  let gossip_time =
    match ctx with
    | Some ctx -> Context.gossip_time ctx ?cap:horizon p
    | None -> Engine.gossip_time ?cap:horizon p
  in
  let length =
    match (gossip_time, horizon) with
    | Some t, _ -> t
    | None, Some h -> h
    | None, None -> Engine.default_cap p
  in
  let certificate =
    match ctx with
    | Some ctx ->
        let dg = Context.delay_digraph ctx p ~length in
        Context.certify ctx dg ~mode:(Systolic.mode p)
    | None ->
        let dg = Delay_digraph.of_systolic p ~length in
        Certificate.certify dg ~mode:(Systolic.mode p)
  in
  let s = max 3 (Systolic.period p) in
  let e_coeff =
    match Systolic.mode p with
    | Protocol.Directed | Protocol.Half_duplex -> General.e s
    | Protocol.Full_duplex -> General.e_fd s
  in
  {
    network = Digraph.name g;
    mode = Systolic.mode p;
    period = Systolic.period p;
    gossip_time;
    broadcast_time = Engine.broadcast_time ?cap:horizon p ~src:0;
    diameter =
      (match ctx with
      | Some ctx -> Context.diameter ctx g
      | None -> Metrics.diameter g);
    certificate;
    asymptotic_main_term = General.coefficient_of_log ~e_coeff ~n;
  }

module Json = Gossip_util.Json

let int_opt_json = function Some t -> Json.Int t | None -> Json.Null

let bounds_json l =
  Json.List
    (List.map
       (fun (s, b) -> Json.Obj [ ("s", Json.Int s); ("bound", Json.Float b) ])
       l)

let network_report_to_json r =
  Json.Obj
    [
      ("name", Json.Str r.name);
      ("n", Json.Int r.n);
      ("arcs", Json.Int r.arcs);
      ("symmetric", Json.Bool r.symmetric);
      ("diameter", Json.Int r.diameter);
      ("degree_parameter", Json.Int r.degree_parameter);
      ("general_bounds", bounds_json r.general_bounds);
      ("general_bounds_fd", bounds_json r.general_bounds_fd);
      ("nonsystolic_bound", Json.Float r.nonsystolic_bound);
    ]

let protocol_report_to_json ?coverage r =
  let base =
    [
      ("network", Json.Str r.network);
      ("mode", Json.Str (Protocol.mode_to_string r.mode));
      ("period", Json.Int r.period);
      ("gossip_time", int_opt_json r.gossip_time);
      ("broadcast_time", int_opt_json r.broadcast_time);
      ("diameter", Json.Int r.diameter);
      ("certificate", Certificate.to_json r.certificate);
      ("asymptotic_main_term", Json.Float r.asymptotic_main_term);
    ]
  in
  let extra =
    match coverage with
    | None -> []
    | Some curve ->
        [
          ( "coverage",
            Json.List (Array.to_list (Array.map (fun c -> Json.Float c) curve))
          );
        ]
  in
  Json.Obj (base @ extra)

let pp_network_report ppf r =
  Format.fprintf ppf "network %s: n=%d, arcs=%d, %s, diameter=%d, d=%d@\n"
    r.name r.n r.arcs
    (if r.symmetric then "symmetric" else "directed")
    r.diameter r.degree_parameter;
  Format.fprintf ppf "  half-duplex systolic lower bounds (main term):@\n";
  List.iter
    (fun (s, b) -> Format.fprintf ppf "    s=%d: %.2f rounds@\n" s b)
    r.general_bounds;
  Format.fprintf ppf "  full-duplex systolic lower bounds (main term):@\n";
  List.iter
    (fun (s, b) -> Format.fprintf ppf "    s=%d: %.2f rounds@\n" s b)
    r.general_bounds_fd;
  Format.fprintf ppf "  non-systolic half-duplex bound: %.2f rounds@\n"
    r.nonsystolic_bound

let pp_protocol_report ppf r =
  let pp_opt ppf = function
    | Some t -> Format.fprintf ppf "%d" t
    | None -> Format.fprintf ppf "did not complete"
  in
  Format.fprintf ppf
    "%s protocol on %s (period %d):@\n\
    \  gossip time: %a@\n\
    \  broadcast time from 0: %a@\n\
    \  diameter: %d@\n\
    \  certified lower bound (Thm 4.1): %d rounds (lambda=%.3f, norm=%.4f, closed-form %.4f)@\n\
    \  asymptotic main term e(s)·log n: %.2f@\n"
    (Protocol.mode_to_string r.mode)
    r.network r.period pp_opt r.gossip_time pp_opt r.broadcast_time r.diameter
    r.certificate.Certificate.bound r.certificate.Certificate.lambda
    r.certificate.Certificate.norm r.certificate.Certificate.closed_form
    r.asymptotic_main_term
